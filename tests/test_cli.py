"""End-to-end command line driver runs in temporary directories."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bardina2d import basis, bounds, checks, cli, fourier, legendre, snapshot, verification
from bardina2d.errors import DegenerateEnsembleError, ModelError

TWO_PI = 2.0 * np.pi


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def decay_doc(**extra):
    doc = {
        "geometry": "sphere",
        "truncation": 6,
        "nu": 1.0,
        "alpha": 1.0,
        "initial": {"kind": "eigenmode", "mode": [3, 1], "amplitude": 0.7},
        "scheme": {"dt": 0.001, "t_end": 0.2, "stride": 50},
    }
    doc.update(extra)
    return doc


def forced_doc(**extra):
    doc = {
        "geometry": "torus",
        "length": TWO_PI,
        "truncation": 4,
        "nu": 0.5,
        "alpha": 1.0,
        "sigma": 0.4,
        "seed": 11,
        "forcing": {"modes": [[1, 2, 1.5]], "harmonic": [0.2, 0.0]},
        "initial": {"kind": "random", "slope": 2.0, "energy": 0.5},
        "scheme": {"dt": 0.01, "t_end": 1.0, "stride": 25},
    }
    doc.update(extra)
    return doc


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_eigenmode_decay_csv(self, tmp_path):
        config = write_config(tmp_path, decay_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        assert header[0] == "t" and header[-1] == "violations"
        u0 = float(rows[0][header.index("norm_u_l2")])
        lam = 12.0  # degree-3 eigenvalue n(n+1)
        for row in rows:
            t = float(row[0])
            expected = u0 * math.exp(-lam * t)
            assert abs(float(row[1]) - expected) <= 1e-8 * u0
        assert (out / "final.bdna").is_file() and (out / "meta.json").is_file()

    def test_csv_floats_roundtrip(self, tmp_path):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        for row in rows:
            for cell in row[:-1]:
                # 17 significant digits keep the exact double
                assert format(float(cell), ".17g") == cell

    def test_zero_length_run(self, tmp_path):
        doc = decay_doc()
        doc["scheme"]["t_end"] = 0.0
        config = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        text = (out / "diagnostics.csv").read_text()
        assert text.count("\n") == 1  # header only
        meta = json.loads((out / "meta.json").read_text())
        assert meta["t_final"] == 0.0
        assert (out / "final.bdna").is_file()

    def test_resume_bitwise_tail(self, tmp_path):
        full = write_config(tmp_path, forced_doc(), "full.json")
        half_doc = forced_doc()
        half_doc["scheme"]["t_end"] = 0.5
        half = write_config(tmp_path, half_doc, "half.json")
        assert cli.main(["simulate", "--config", full, "--out", str(tmp_path / "full")]) == 0
        assert cli.main(["simulate", "--config", half, "--out", str(tmp_path / "half")]) == 0
        code = cli.main(
            [
                "simulate",
                "--config",
                full,
                "--resume",
                str(tmp_path / "half" / "final.bdna"),
                "--out",
                str(tmp_path / "tail"),
            ]
        )
        assert code == 0
        rows_full = (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()
        rows_tail = (tmp_path / "tail" / "diagnostics.csv").read_text().splitlines()
        assert rows_tail[1:] == rows_full[-(len(rows_tail) - 1) :]
        full_snap = (tmp_path / "full" / "final.bdna").read_bytes()
        tail_snap = (tmp_path / "tail" / "final.bdna").read_bytes()
        assert full_snap == tail_snap

    def _half_and_tail(self, tmp_path, edit_meta, capsys, full_doc=None):
        """Resume a half run whose meta.json `edit_meta` altered, under
        `full_doc` (forced_doc() when None); the tail's meta and stderr."""
        half_doc = forced_doc()
        half_doc["scheme"]["t_end"] = 0.5
        half = write_config(tmp_path, half_doc, "half.json")
        full = write_config(tmp_path, full_doc or forced_doc(), "full.json")
        assert cli.main(["simulate", "--config", half, "--out", str(tmp_path / "half")]) == 0
        edit_meta(tmp_path / "half" / "meta.json")
        capsys.readouterr()
        argv = ["simulate", "--config", full, "--out", str(tmp_path / "tail")]
        argv += ["--resume", str(tmp_path / "half" / "final.bdna")]
        assert cli.main(argv) == 0
        meta = json.loads((tmp_path / "tail" / "meta.json").read_text())
        return meta, capsys.readouterr().err

    def test_resume_records_nothing_when_anchored(self, tmp_path, capsys):
        meta, err = self._half_and_tail(tmp_path, lambda path: None, capsys)
        assert "anchor" not in meta
        assert meta["anchor_t"] == 0.0
        assert err == ""

    def test_resume_without_meta_records_reanchoring(self, tmp_path, capsys):
        meta, err = self._half_and_tail(tmp_path, os.remove, capsys)
        assert meta["anchor"] == "reanchored"
        assert meta["anchor_t"] == 0.5
        lines = err.splitlines()
        assert len(lines) == 1
        assert "re-anchored" in lines[0] and "no meta.json at" in lines[0]

    def test_resume_with_mismatched_nu_records_reanchoring(self, tmp_path, capsys):
        def edit(path):
            meta = json.loads(path.read_text())
            meta["nu"] = 0.25
            path.write_text(json.dumps(meta))

        meta, err = self._half_and_tail(tmp_path, edit, capsys)
        assert meta["anchor"] == "reanchored"
        assert meta["anchor_t"] == 0.5
        lines = err.splitlines()
        assert len(lines) == 1
        assert "re-anchored" in lines[0] and "nu is 0.25" in lines[0]

    def test_resume_with_other_forcing_records_reanchoring(self, tmp_path, capsys):
        # meta.json echoes the forcing, so a resume under another amplitude
        # re-anchors with meta.json left as the first leg wrote it
        other = forced_doc(forcing={"modes": [[1, 2, 15.0]], "harmonic": [0.2, 0.0]})
        meta, err = self._half_and_tail(tmp_path, lambda path: None, capsys, other)
        assert meta["anchor"] == "reanchored"
        assert meta["anchor_t"] == 0.5
        lines = err.splitlines()
        assert len(lines) == 1
        assert "re-anchored" in lines[0] and "forcing is" in lines[0]

    @pytest.mark.parametrize(
        "half_forcing,full_forcing",
        [({"modes": [[1, 2, 1.5], [3, 0, 0.5]], "harmonic": [0.2, 0.0]},
          {"modes": [[3, 0, 0.5], [1, 2, 1.5]], "harmonic": [0.2, 0.0]}),
         ({"modes": [[1, 2, 1.5]], "harmonic": [0.2, 0.0]},
          {"modes": [[1, 2, 1.0], [1, 2, 0.5]], "harmonic": [0.2, 0.0]}),
         ({"modes": [[1, 2, 1.5]], "harmonic": [0.0, 0.0]}, {"modes": [[1, 2, 1.5]]})],
        ids=["reordered", "split", "zero-harmonic"],
    )
    def test_resume_with_same_forcing_in_other_rows_keeps_its_anchor(
        self, tmp_path, capsys, half_forcing, full_forcing
    ):
        # meta.json echoes the realized forcing, not the config's rows
        half_doc = forced_doc(forcing=half_forcing)
        half_doc["scheme"]["t_end"] = 0.5
        half = write_config(tmp_path, half_doc, "half.json")
        full = write_config(tmp_path, forced_doc(forcing=full_forcing), "full.json")
        assert cli.main(["simulate", "--config", half, "--out", str(tmp_path / "half")]) == 0
        tail = tmp_path / "tail"
        argv = ["simulate", "--config", full, "--out", str(tail)]
        assert cli.main(argv + ["--resume", str(tmp_path / "half" / "final.bdna")]) == 0
        meta = json.loads((tail / "meta.json").read_text())
        assert "anchor" not in meta and meta["anchor_t"] == 0.0
        assert capsys.readouterr().err == ""
        assert cli.main(["verify", "--config", full, "--out", str(tail)]) == 0
        assert "run-average-enstrophy PASS" in " ".join(capsys.readouterr().out.split())

    def test_diagnostics_columns_hold_their_quantities(self, tmp_path):
        # the last row against the record of the final snapshot, rebuilt from
        # meta.json's anchor with rhs_u as the tendency, column by column
        from bardina2d import config as cfg
        from bardina2d import dynamics

        fields = {
            "t": "t",
            "norm_u_l2": "u_l2",
            "norm_u_v": "u_v",
            "norm_Au": "au_l2",
            "norm_u2": "h_l2",
            "norm_v": "v_l2",
            "E1": "e1",
            "E2": "e2",
            "env1": "envelope1",
            "env2": "envelope2",
            "energy_residual": "energy_residual",
        }
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        assert header == [*fields, "violations"]
        spec = cfg.parse_config((tmp_path / "run.json").read_text())
        plan = cfg.build_plan(spec)
        params = cfg.model_params(plan, spec)
        meta = json.loads((out / "meta.json").read_text())
        anchor, cause = verification.meta_anchor(meta)
        assert cause is None
        snap = snapshot.load_snapshot(str(out / meta["snapshot"]))
        state = snapshot.as_state(snap)
        record = verification.energy_record(
            plan, state, params, snap.t, verification.envelopes(plan, params, *anchor),
            dynamics.rhs_u(plan, state, params),
        )
        last = dict(zip(header, rows[-1]))
        for column, field in fields.items():
            assert float(last[column]) == getattr(record, field), column
        assert last["violations"] == "0"
        assert record.envelope1 != record.e1 and record.envelope2 != record.e2

    @pytest.mark.parametrize(
        "bad,key",
        [({"anchor_e1": math.nan, "anchor_e2": math.inf}, "anchor_e1"),
         ({"anchor_e2": -math.inf}, "anchor_e2"),
         ({"anchor_t": math.nan}, "anchor_t")],
        ids=["e1-nan-e2-inf", "e2-minus-inf", "t-nan"],
    )
    def test_resume_with_non_finite_anchor_records_reanchoring(self, tmp_path, capsys, bad, key):
        # json writes and reads NaN and Infinity; such an anchor must not
        # reach the envelopes, where it would hide every violation
        def edit(path):
            meta = json.loads(path.read_text())
            meta.update(bad)
            path.write_text(json.dumps(meta))

        meta, err = self._half_and_tail(tmp_path, edit, capsys)
        assert meta["anchor"] == "reanchored"
        assert meta["anchor_t"] == 0.5
        assert all(math.isfinite(meta[k]) for k in ("anchor_e1", "anchor_e2"))
        lines = err.splitlines()
        assert len(lines) == 1
        assert "re-anchored" in lines[0] and key in lines[0]
        header, rows = read_csv(tmp_path / "tail" / "diagnostics.csv")
        for row in rows:
            assert math.isfinite(float(row[header.index("env1")]))
            assert math.isfinite(float(row[header.index("env2")]))

    def test_resume_mismatched_truncation(self, tmp_path):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        other = write_config(tmp_path, forced_doc(truncation=5), "other.json")
        code = cli.main(
            ["simulate", "--config", other, "--resume", str(out / "final.bdna"), "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_resume_with_changed_torus_length(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
        other = write_config(tmp_path, forced_doc(length=7.0), "other.json")
        code = cli.main(
            ["simulate", "--config", other, "--resume", str(out / "final.bdna"), "--out", str(tmp_path / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "length" in err and "7.0" in err
        assert not (tmp_path / "x").exists()

    def test_resume_past_t_end(self, tmp_path):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        short_doc = forced_doc()
        short_doc["scheme"]["t_end"] = 0.5  # behind the snapshot time 1.0
        short = write_config(tmp_path, short_doc, "short.json")
        code = cli.main(
            ["simulate", "--config", short, "--resume", str(out / "final.bdna"), "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_envelope_violations_are_reported_on_stderr(self, tmp_path, capsys):
        # a forced torus mode at h = nu lam dt = 572: IF-RK4 settles 9101
        # times above the true steady state, over both envelopes from the
        # first step on; the run completes, and says so on stderr only
        doc = {
            "geometry": "torus", "truncation": 6, "length": 0.1, "nu": 0.1, "alpha": 0.1,
            "sigma": 0.01, "forcing": {"modes": [[5, 2, -3.0]]}, "initial": {"kind": "zero"},
            "scheme": {"dt": 0.05, "t_end": 0.15, "method": "if-rk4"},
        }
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        assert [row[header.index("violations")] for row in rows] == ["0", "2", "2", "2"]
        err = capsys.readouterr().err
        assert err == (
            "warning: 3 diagnostics row(s) exceed their energy envelopes "
            "(nonzero violations column), the first at t=0.05\n"
        )

    def test_divergence_flushes_partial_csv(self, tmp_path, capsys):
        doc = {
            "geometry": "sphere",
            "truncation": 8,
            "nu": 1e-8,
            "alpha": 0.001,
            "seed": 5,
            "forcing": {"modes": [[2, 1, 2000.0], [5, -3, 1500.0]]},
            "initial": {"kind": "random", "slope": 1.0, "energy": 50.0},
            "scheme": {"dt": 0.5, "t_end": 400.0, "stride": 10, "method": "if-euler"},
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 1
        assert "partial diagnostics flushed" in capsys.readouterr().err
        header, rows = read_csv(out / "diagnostics.csv")
        assert rows  # at least the initial sample made it out
        meta = json.loads((out / "meta.json").read_text())
        assert meta["diverged_at"] > 0.0
        assert not (out / "final.bdna").exists()

    def test_divergence_in_reused_directory_leaves_agreeing_files(self, tmp_path, capsys):
        # a completed torus run first, then a sphere run that diverges at t=4
        # into the same directory, then a completed run again
        out = tmp_path / "run"
        good = write_config(tmp_path, forced_doc(), "good.json")
        assert cli.main(["simulate", "--config", good, "--out", str(out)]) == 0
        doc = {
            "geometry": "sphere",
            "truncation": 21,
            "nu": 1e-4,
            "alpha": 0.01,
            "seed": 0,
            "forcing": {"modes": [[2, 1, 10.0 * math.sqrt(6.0)]]},
            "initial": {"kind": "random", "slope": 2.0, "energy": 1e4},
            "scheme": {"dt": 0.5, "t_end": 200.0, "stride": 1, "method": "if-euler"},
        }
        bad = write_config(tmp_path, doc, "bad.json")
        assert cli.main(["simulate", "--config", bad, "--out", str(out)]) == 1
        assert "last_good.bdna" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["diagnostics.csv", "last_good.bdna", "meta.json"]
        meta = json.loads((out / "meta.json").read_text())
        header, rows = read_csv(out / "diagnostics.csv")
        snap = snapshot.load_snapshot(str(out / meta["snapshot"]))
        assert meta["geometry"] == snap.geometry_kind == "sphere"
        assert meta["snapshot"] == "last_good.bdna"
        assert snap.t == meta["t_final"] == float(rows[-1][0])
        assert meta["diverged_at"] == meta["t_final"] + 0.5
        # the last rows blew up: their residual is NaN, never a clean 0
        assert math.isnan(float(rows[-1][header.index("energy_residual")]))

        assert cli.main(["simulate", "--config", good, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["diagnostics.csv", "final.bdna", "meta.json"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["snapshot"] == "final.bdna" and "diverged_at" not in meta

    def test_diverging_resume_keeps_its_source_snapshot(self, tmp_path, capsys):
        # the sphere config that diverges at t=4, first run to t=2 only
        doc = {
            "geometry": "sphere",
            "truncation": 21,
            "nu": 1e-4,
            "alpha": 0.01,
            "seed": 0,
            "forcing": {"modes": [[2, 1, 10.0 * math.sqrt(6.0)]]},
            "initial": {"kind": "random", "slope": 2.0, "energy": 1e4},
            "scheme": {"dt": 0.5, "t_end": 2.0, "stride": 1, "method": "if-euler"},
        }
        out = tmp_path / "run"
        short = write_config(tmp_path, doc, "short.json")
        assert cli.main(["simulate", "--config", short, "--out", str(out)]) == 0
        source = (out / "final.bdna").read_bytes()
        doc["scheme"]["t_end"] = 200.0
        long = write_config(tmp_path, doc, "long.json")
        argv = ["simulate", "--config", long, "--resume", str(out / "final.bdna"), "--out", str(out)]
        assert cli.main(argv) == 1
        assert "last_good.bdna" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == [
            "diagnostics.csv", "final.bdna", "last_good.bdna", "meta.json"
        ]
        assert (out / "final.bdna").read_bytes() == source
        meta = json.loads((out / "meta.json").read_text())
        assert meta["snapshot"] == "last_good.bdna"
        assert snapshot.load_snapshot(str(out / "last_good.bdna")).t == meta["t_final"]

    def test_interrupt_while_committing_leaves_earlier_run_untouched(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = write_config(tmp_path, forced_doc())
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        names = ["diagnostics.csv", "final.bdna", "meta.json"]
        before = {name: (out / name).read_bytes() for name in names}
        other_config = write_config(tmp_path, forced_doc(seed=12), "other.json")
        # each writer completes its staged file, then the interrupt arrives
        for owner, attr in ((snapshot, "save_snapshot"), (cli, "_write_json")):
            inner = getattr(owner, attr)

            def interrupted(*args, inner=inner):
                inner(*args)
                raise KeyboardInterrupt

            with monkeypatch.context() as patch:
                patch.setattr(owner, attr, interrupted)
                with pytest.raises(KeyboardInterrupt):
                    cli.main(["simulate", "--config", other_config, "--out", str(out)])
            assert sorted(os.listdir(out)) == names  # no partial file is left
            assert {name: (out / name).read_bytes() for name in names} == before

    def test_interrupt_leaves_earlier_run_untouched(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = write_config(tmp_path, forced_doc())
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        names = ["diagnostics.csv", "final.bdna", "meta.json"]
        before = {name: (out / name).read_bytes() for name in names}

        other = forced_doc(seed=12)
        other["scheme"]["stride"] = 1
        other_config = write_config(tmp_path, other, "other.json")
        inner = verification.energy_record
        for n in (1, 40, 101):  # the first, a middle and the last record
            calls = []

            def interrupted(*args, **kwargs):
                calls.append(1)
                if len(calls) == n:
                    raise KeyboardInterrupt
                return inner(*args, **kwargs)

            monkeypatch.setattr(verification, "energy_record", interrupted)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["simulate", "--config", other_config, "--out", str(out)])
            assert sorted(os.listdir(out)) == names  # no partial file is left
            assert {name: (out / name).read_bytes() for name in names} == before

    def test_envelope_constants_once_per_command(self, tmp_path, monkeypatch):
        calls = []
        inner = bounds.constants

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(bounds, "constants", counted)
        doc = forced_doc()
        doc["scheme"]["stride"] = 1
        config = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert len(read_csv(out / "diagnostics.csv")[1]) == 101
        assert len(calls) == 1

    def test_memory_does_not_grow_with_run_length(self, tmp_path):
        def doc(t_end):
            return {
                "geometry": "sphere",
                "truncation": 21,
                "nu": 1.0,
                "alpha": 1.0,
                "seed": 0,
                "forcing": {"modes": [[2, 1, 10.0 * math.sqrt(6.0)]]},
                "initial": {"kind": "random", "slope": 2.0, "energy": 1.0},
                "scheme": {"dt": 0.01, "t_end": t_end, "stride": 1},
            }

        def peak(t_end, name):
            config = write_config(tmp_path, doc(t_end), name + ".json")
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / name)]) == 0
            return tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            peak(0.5, "warm")  # plan, workspaces and imports
            short = peak(0.5, "short")  # 50 steps
            long = peak(4.0, "long")  # 400 steps
        finally:
            tracemalloc.stop()
        # holding the 350 further samples and records took about 1.8 MB
        assert long - short < 100_000, (short, long)

    def test_threads_never_change_outputs(self, tmp_path):
        config = write_config(tmp_path, forced_doc())
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", config, "--out", str(a), "--threads", "1"]) == 0
        assert cli.main(["simulate", "--config", config, "--out", str(b), "--threads", "8"]) == 0
        for name in ("diagnostics.csv", "final.bdna", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path, forced_doc())
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", config, "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", config, "--out", str(b), "--seed", "99"]) == 0
        assert (a / "diagnostics.csv").read_text() != (b / "diagnostics.csv").read_text()
        assert json.loads((b / "meta.json").read_text())["seed"] == 99


class TestLyapunov:
    def test_report_and_csv(self, tmp_path):
        doc = forced_doc(
            lyapunov={"n_ensemble": 3, "t_transient": 0.5, "t_average": 2.0, "renorm_interval": 0.25}
        )
        config = write_config(tmp_path, doc)
        out = tmp_path / "lyap"
        assert cli.main(["lyapunov", "--config", config, "--out", str(out)]) == 0
        header, rows = read_csv(out / "exponents.csv")
        assert header == ["t", "mu_1", "mu_2", "mu_3", "q_1", "q_2", "q_3"]
        assert len(rows) == 8  # t_average / renorm_interval
        report = json.loads((out / "lyapunov.json").read_text())
        assert len(report["exponents"]) == 3
        assert report["exponents"] == sorted(report["exponents"], reverse=True)
        last = [float(x) for x in rows[-1][1:4]]
        assert last == sorted(last, reverse=True)
        assert np.allclose(sorted(report["exponents"]), sorted(last))
        assert isinstance(report["consistent"], bool)
        assert report["verdict"] in ("consistent", "inconsistent", "undecided")
        assert report["consistent"] == (report["verdict"] == "consistent")
        assert (report["advice"] is None) == (report["verdict"] != "undecided")
        assert report["nstar"] > 0.0
        assert 0.0 < report["gs_min_scale"] <= 1.0

    def test_gs_min_scale_on_laminar_sphere(self, tmp_path):
        # sphere L=21 at Grashof 10 settles to a steady state whose eighth
        # exponent is -6, so the smallest scale factor is about exp(-6 * 0.25)
        doc = {
            "geometry": "sphere",
            "truncation": 21,
            "nu": 1.0,
            "alpha": 1.0,
            "seed": 0,
            "forcing": {"modes": [[2, 1, 10.0 * math.sqrt(6.0)]]},
            "initial": {"kind": "random", "slope": 2.0, "energy": 1.0},
            "scheme": {"dt": 0.01, "t_end": 1.0},
            "lyapunov": {
                "n_ensemble": 8, "t_transient": 1.0, "t_average": 4.0, "renorm_interval": 0.25
            },
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "lyap"
        assert cli.main(["lyapunov", "--config", config, "--out", str(out)]) == 0
        scale = json.loads((out / "lyapunov.json").read_text())["gs_min_scale"]
        assert 0.0 < scale <= 1.0
        assert scale == pytest.approx(math.exp(-6.0 * 0.25), rel=1e-3)

    def test_missing_block_is_config_error(self, tmp_path):
        config = write_config(tmp_path, forced_doc())
        assert cli.main(["lyapunov", "--config", config, "--out", str(tmp_path / "x")]) == 2

    LYAP = {"n_ensemble": 3, "t_transient": 0.0, "t_average": 0.5, "renorm_interval": 0.25}

    def test_report_keys(self, tmp_path):
        config = write_config(tmp_path, forced_doc(lyapunov=self.LYAP))
        out = tmp_path / "lyap"
        assert cli.main(["lyapunov", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "lyapunov.json").read_text())
        assert set(report) == {
            "geometry", "length", "truncation", "nu", "alpha", "sigma", "forcing",
            "n_ensemble", "t_transient", "t_average", "renorm_interval", "seed",
            "measured_crossing", "nstar", "consistent", "verdict", "advice",
            "exponents", "q_partial", "dim_ky", "ky_saturated", "gs_min_scale",
        }
        assert report["forcing"] == {"modes": [[1, 2, 1.5]], "harmonic": [0.2, 0.0]}

    def test_interrupt_leaves_both_earlier_files(self, tmp_path, monkeypatch):
        out = tmp_path / "lyap"
        config = write_config(tmp_path, forced_doc(lyapunov=self.LYAP))
        assert cli.main(["lyapunov", "--config", config, "--out", str(out)]) == 0
        names = ["exponents.csv", "lyapunov.json"]
        before = {name: (out / name).read_bytes() for name in names}
        other_config = write_config(tmp_path, forced_doc(nu=0.25, lyapunov=self.LYAP), "other.json")
        inner = cli._write_json

        def interrupted(*args):
            inner(*args)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_write_json", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["lyapunov", "--config", other_config, "--out", str(out)])
        assert sorted(os.listdir(out)) == names  # no partial file is left
        assert {name: (out / name).read_bytes() for name in names} == before


class TestBounds:
    def test_torus_closed_form(self, tmp_path):
        doc = {
            "geometry": "torus",
            "length": TWO_PI,
            "truncation": 4,
            "nu": 1.0,
            "alpha": 1.0,
            "sigma": 2.0,
            "forcing": {"modes": [[1, 0, 1.0]]},
            "scheme": {"dt": 0.01, "t_end": 1.0},
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "bounds"
        assert cli.main(["bounds", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert abs(report["nstar"] - 3.0 * report["grashof"]) <= 1e-12 * report["nstar"]
        assert "exponent_note" in report

    def test_zero_forcing_zeros(self, tmp_path):
        doc = decay_doc()
        config = write_config(tmp_path, doc)
        out = tmp_path / "bounds"
        assert cli.main(["bounds", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["nstar"] == 0.0
        assert report["rho0"] == 0.0 and report["rho_v_sum"] == 0.0

    def test_sweep_csv(self, tmp_path):
        doc = forced_doc(sweep={"key": "nu", "values": [0.5, 1.0, 2.0]})
        config = write_config(tmp_path, doc)
        out = tmp_path / "bounds"
        assert cli.main(["bounds", "--config", config, "--out", str(out)]) == 0
        header, rows = read_csv(out / "bounds_sweep.csv")
        assert header[:2] == ["parameter", "value"]
        assert len(rows) == 3
        assert [row[0] for row in rows] == ["nu", "nu", "nu"]
        nstar = header.index("nstar")
        values = [float(row[nstar]) for row in rows]
        assert values[0] > values[1] > values[2]  # more viscosity, smaller bound

    def test_run_without_sweep_removes_an_earlier_sweep_csv(self, tmp_path):
        out = tmp_path / "bounds"
        swept = write_config(tmp_path, forced_doc(sweep={"key": "nu", "values": [0.5, 1.0]}))
        assert cli.main(["bounds", "--config", swept, "--out", str(out)]) == 0
        assert (out / "bounds_sweep.csv").is_file()
        plain = write_config(tmp_path, forced_doc(nu=2.0), "plain.json")
        assert cli.main(["bounds", "--config", plain, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["bounds.json"]
        assert json.loads((out / "bounds.json").read_text())["inputs"]["nu"] == 2.0

    COMMON_KEYS = {
        "inputs", "lambda_1", "delta", "delta_prime", "l1", "l2", "k1", "k2",
        "k2_from_direct_inequality", "rho0", "rho1", "rho1_tilde", "rho2",
        "rho_v_sum", "rho_v_half", "grashof", "nstar", "average_enstrophy_bound",
        "exponent_note",
    }
    INPUT_KEYS = {
        "geometry", "length", "truncation", "nu", "alpha", "sigma", "f1_norm",
        "f1_half_inv_norm", "f1_inv_norm", "f2_norm", "f_total_norm", "lipschitz_c",
    }

    @pytest.mark.parametrize("kind", ["sphere", "torus"])
    def test_report_keys(self, tmp_path, kind):
        doc = decay_doc() if kind == "sphere" else forced_doc()
        config = write_config(tmp_path, doc)
        out = tmp_path / "bounds"
        assert cli.main(["bounds", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert set(report["inputs"]) == self.INPUT_KEYS
        if kind == "torus":
            assert set(report) == self.COMMON_KEYS
            assert report["k2_from_direct_inequality"] is True
            return
        sphere_keys = {"l2_over_deltap_tight", "l2_over_deltap_loose", "inertial"}
        assert set(report) == self.COMMON_KEYS | sphere_keys
        assert report["k2_from_direct_inequality"] is False
        assert set(report["inertial"]) == {"gaps", "ell", "rho", "c", "crossing", "squeezing_note"}
        assert report["inertial"]["gaps"][:2] == [4.0, 6.0]

    def test_constants_once_per_report(self, tmp_path, monkeypatch):
        # one report and one per sweep value, each building its constants
        # once and deriving the absorbing radii from them
        calls = []
        inner = bounds.constants

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(bounds, "constants", counted)
        doc = decay_doc(
            forcing={"modes": [[2, 1, 3.0]]}, sweep={"key": "nu", "values": [0.5, 1.0, 2.0]}
        )
        config = write_config(tmp_path, doc)
        out = tmp_path / "bounds"
        assert cli.main(["bounds", "--config", config, "--out", str(out)]) == 0
        assert len(read_csv(out / "bounds_sweep.csv")[1]) == 3
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "doc",
        [
            decay_doc(sweep={"key": "nu", "values": [1.0, 0.0]}),
            forced_doc(sweep={"key": "nu", "values": [1.0, -0.5]}),
            forced_doc(sweep={"key": "alpha", "values": [1.0, -1.0]}),
            forced_doc(sweep={"key": "sigma", "values": [1.0, 0.0]}),
            forced_doc(sweep={"key": "alpha", "values": [1.0, 1e-300]}),
        ],
        ids=[
            "sphere-nu-zero", "torus-nu-negative", "alpha-negative", "torus-sigma-zero",
            "alpha-underflow",
        ],
    )
    def test_sweep_value_out_of_range(self, tmp_path, capsys, doc):
        config = write_config(tmp_path, doc)
        out = tmp_path / "bounds"
        assert cli.main(["bounds", "--config", config, "--out", str(out)]) == 2
        assert "sweep.values[1]" in capsys.readouterr().err
        assert not (out / "bounds_sweep.csv").exists()


class TestVerifySelftest:
    def test_envelope_row_steps_with_the_config_dt(self, tmp_path, capsys):
        # a torus of period 0.1 runs cleanly at its own dt of 1e-4; stepped
        # at a fixed dt of 0.005 the row failed on "non-finite state
        # encountered at t=0.015"
        doc = {
            "geometry": "torus", "length": 0.1, "truncation": 5, "nu": 0.001, "alpha": 0.01,
            "sigma": 0.01,
            "forcing": {"modes": [[-4, -1, -3.0], [0, 1, -3.0]], "harmonic": [10.0, 0.0]},
            "initial": {"kind": "zero"},
            "scheme": {"dt": 1e-4, "t_end": 3e-4, "stride": 7},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("gronwall-envelopes")
        )
        assert row.split()[1] == "PASS" and row.endswith("0 violation(s) in 41 samples"), row

    @pytest.mark.parametrize("command", ["torus-verify", "selftest"])
    def test_stdout_does_not_depend_on_threads(self, tmp_path, capsys, command):
        if command == "selftest":
            argv = ["selftest"]
        else:
            argv = ["verify", "--config", write_config(tmp_path, forced_doc(truncation=8))]
        outputs = []
        for threads in ("1", "6"):
            assert cli.main(argv + ["--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_tangent_row_survives_a_dominant_forcing(self, tmp_path, capsys):
        # the forcing dominates the tendency, so f(u + eps w) and f(u - eps w)
        # cancel; at eps 1e-6 the row read FAIL 6.986e-06 on this sound run
        doc = {
            "geometry": "torus", "length": 0.1, "truncation": 3, "nu": 0.001, "alpha": 1.0,
            "sigma": 0.01, "seed": 0, "forcing": {"modes": [[-1, 1, -3.0]]},
            "initial": {"kind": "random", "energy": 1e-6},
            "scheme": {"dt": 0.001, "t_end": 0.01},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("tangent-linearization")
        )
        assert row.split()[1] == "PASS" and float(row.split()[-1]) <= 1e-9, row

    def test_verify_clean_config(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        assert cli.main(["verify", "--config", config]) == 0
        text = capsys.readouterr().out
        for name in (
            "transform-roundtrip",
            "transform-alias",
            "operator-identities",
            "tangent-linearization",
            "gronwall-envelopes",
        ):
            assert name in text
        assert "FAIL" not in text

    def test_verify_passes_unforced_sphere_truncation_one(self, tmp_path, capsys):
        # degree-1 products have no degree-1 part, and the forcing verify
        # injects must lie inside truncation 1
        doc = decay_doc(truncation=1, seed=3)
        doc["initial"] = {"kind": "random", "slope": 2.0, "energy": 0.5}
        config = write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", config]) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text and "nan" not in text
        assert text.count("PASS") == 5

    def test_roundtrip_row_passes_on_large_sphere(self):
        # with accurate Gauss weights the sphere round trip stays near 1e-14
        # at L=128; weights off by 1e-11 near the poles put it at 3e-12
        plan = basis.build_plan(basis.sphere(), 128)
        ok, detail = checks.transform_roundtrip(plan, seed=0)
        assert ok, detail
        assert float(detail.split()[-1]) <= 1e-13

    def test_verify_flags_undersized_torus_grid(self, tmp_path, capsys, monkeypatch):
        # a 3K grid aliases |k_i| = 2K onto K; only the product comparison sees it
        monkeypatch.setattr(fourier._TorusCore, "ngrid", property(lambda core: 3 * core.kmax))
        assert basis.build_plan(basis.torus(TWO_PI), 8).grid_shape == (24, 24)
        config = write_config(tmp_path, forced_doc(truncation=8))
        assert cli.main(["verify", "--config", config]) == 1
        status = {
            line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()[1:]
            if len(line.split()) > 1
        }
        assert status["transform-alias"] == "FAIL"
        for name in ("transform-roundtrip", "operator-identities", "gronwall-envelopes"):
            assert status[name] == "PASS"

    def test_verify_flags_undersized_sphere_grid(self, tmp_path, capsys, monkeypatch):
        # a 2L + 2 longitude rule (48 points at L=21) is enough for the flow
        # round trip but aliases the product the right-hand side forms
        fast_even = legendre._fast_even
        monkeypatch.setattr(legendre, "_fast_even", lambda n: fast_even(2 * (n - 1) // 3 + 2))
        assert basis.build_plan(basis.sphere(), 21).grid_shape == (33, 48)
        config = write_config(tmp_path, decay_doc(truncation=21))
        assert cli.main(["verify", "--config", config]) == 1
        status = {
            line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()[1:]
            if len(line.split()) > 1
        }
        assert status["transform-alias"] == "FAIL"
        assert status["transform-roundtrip"] == "PASS"

    def test_verify_rechecks_run_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert cli.main(["verify", "--config", config, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "run-envelopes" in text and "run-energy-law" in text
        assert "run-average-enstrophy" in text
        assert "FAIL" not in text

    def test_verify_flags_tampered_run(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        csv_path = out / "diagnostics.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        last = lines[-1].split(",")
        last[header.index("E1")] = format(float(last[header.index("env1")]) * 3.0, ".17g")
        csv_path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
        assert cli.main(["verify", "--config", config, "--out", str(out)]) == 1
        assert "run-envelopes" in capsys.readouterr().out

    def test_verify_flags_energy_law_failure(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        csv_path = out / "diagnostics.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[header.index("energy_residual")] = "1e-08"
        csv_path.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
        assert cli.main(["verify", "--config", config, "--out", str(out)]) == 1
        table = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in table if line.startswith("run-")] == [
            "PASS", "FAIL", "PASS"
        ]
        assert any(line.startswith("run-energy-law") for line in table)

    def _run_rows(self, capsys, config, out):
        """Exit code of `verify` on a run directory, and its run- rows by name."""
        code = cli.main(["verify", "--config", config, "--out", str(out)])
        table = capsys.readouterr().out.splitlines()
        return code, {
            line.split()[0]: line.split(None, 2)[1:] for line in table if line.startswith("run-")
        }

    def test_verify_flags_average_enstrophy_above_bound(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        csv_path = out / "diagnostics.csv"
        lines = csv_path.read_text().splitlines()
        col = lines[0].split(",").index("norm_u_v")
        edited = [lines[0]]
        for line in lines[1:]:
            row = line.split(",")
            row[col] = format(100.0 * float(row[col]), ".17g")
            edited.append(",".join(row))
        csv_path.write_text("\n".join(edited) + "\n")
        code, rows = self._run_rows(capsys, config, out)
        assert code == 1
        assert rows["run-average-enstrophy"][0] == "FAIL"
        assert rows["run-envelopes"][0] == rows["run-energy-law"][0] == "PASS"

    def test_average_enstrophy_row_names_mismatched_parameter(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        meta["alpha"] = 0.5
        (out / "meta.json").write_text(json.dumps(meta))
        code, rows = self._run_rows(capsys, config, out)
        assert code == 1
        status, detail = rows["run-average-enstrophy"]
        assert status == "FAIL" and "alpha is 0.5" in detail

    def test_average_enstrophy_row_names_other_forcing(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        other = forced_doc(forcing={"modes": [[1, 2, 15.0]], "harmonic": [0.2, 0.0]})
        code, rows = self._run_rows(capsys, write_config(tmp_path, other, "other.json"), out)
        assert code == 1
        status, detail = rows["run-average-enstrophy"]
        assert status == "FAIL" and "forcing is" in detail

    def test_non_numeric_diagnostics_field_fails_the_row(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        csv_path = out / "diagnostics.csv"
        lines = csv_path.read_text().splitlines()
        lines[2] = "abc" + lines[2][lines[2].index(","):]
        csv_path.write_text("\n".join(lines) + "\n")
        code, rows = self._run_rows(capsys, config, out)
        assert code == 1
        status, detail = rows["run-average-enstrophy"]
        assert status == "FAIL" and "column t" in detail

    def test_average_enstrophy_row_skips_a_zero_length_run(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc(scheme={"dt": 0.01, "t_end": 0.0}))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        code, rows = self._run_rows(capsys, config, out)
        assert code == 0
        status, detail = rows["run-average-enstrophy"]
        assert status == "PASS" and detail.startswith("skipped")

    @pytest.mark.parametrize(
        "probe", ["meta-dt-nan", "meta-dt-huge", "meta-dt-missing", "nan-E1", "nan-env1"]
    )
    def test_run_envelopes_fails_what_it_cannot_read(self, tmp_path, capsys, probe):
        # E1 at 10 times its envelope in one row must fail the row whatever
        # step meta.json claims, and a NaN energy or envelope must not pass
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        csv_path = out / "diagnostics.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        e1, env1 = header.index("E1"), header.index("env1")
        if probe == "nan-E1":
            row[e1] = "nan"
        elif probe == "nan-env1":
            row[env1] = "nan"
        else:
            row[e1] = format(10.0 * float(row[env1]), ".17g")
            meta = json.loads((out / "meta.json").read_text())
            if probe == "meta-dt-missing":
                del meta["dt"]
            else:
                meta["dt"] = math.nan if probe == "meta-dt-nan" else 1e6
            (out / "meta.json").write_text(json.dumps(meta))
        csv_path.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
        code, rows = self._run_rows(capsys, config, out)
        assert code == 1
        status, detail = rows["run-envelopes"]
        assert status == "FAIL"
        assert rows["run-energy-law"][0] == "PASS"
        if probe == "meta-dt-missing":
            assert detail == "meta.json has no dt"
        elif probe.startswith("meta-dt"):
            run_dt = "nan" if probe == "meta-dt-nan" else "1000000.0"
            assert detail == f"meta.json dt is {run_dt}, the config has dt 0.01"

    def test_run_envelopes_rebuilds_the_envelopes(self, tmp_path, capsys):
        # an E1 at 10 times its envelope hidden by an env1 raised to 100
        # times: the recorded columns agree, the rebuilt envelope does not
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        csv_path = out / "diagnostics.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        e1, env1 = header.index("E1"), header.index("env1")
        row[e1] = format(10.0 * float(row[env1]), ".17g")
        row[env1] = format(100.0 * float(row[env1]), ".17g")
        csv_path.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
        code, rows = self._run_rows(capsys, config, out)
        assert code == 1
        status, detail = rows["run-envelopes"]
        assert status == "FAIL"
        assert "env1 off the envelope rebuilt" in detail and f"t={float(row[0])!r}" in detail
        assert rows["run-energy-law"][0] == "PASS"

    @pytest.mark.parametrize("edit", ["no-meta", "no-anchor", "nan-anchor"])
    def test_run_envelopes_fails_without_an_anchor(self, tmp_path, capsys, edit):
        config = write_config(tmp_path, forced_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        meta_path = out / "meta.json"
        if edit == "no-meta":
            meta_path.unlink()
        else:
            meta = json.loads(meta_path.read_text())
            if edit == "no-anchor":
                del meta["anchor_e2"]
            else:
                meta["anchor_t"] = math.nan
            meta_path.write_text(json.dumps(meta))
        code, rows = self._run_rows(capsys, config, out)
        assert code == 1
        status, detail = rows["run-envelopes"]
        assert status == "FAIL" and detail.startswith("cannot rebuild the envelopes:")
        cause = {"no-meta": "no meta.json at", "no-anchor": "no valid anchor",
                 "nan-anchor": "anchor_t is nan"}[edit]
        assert cause in detail

    def test_run_envelopes_pass_on_a_reanchored_resume(self, tmp_path, capsys):
        half_doc = forced_doc()
        half_doc["scheme"]["t_end"] = 0.5
        half = write_config(tmp_path, half_doc, "half.json")
        full = write_config(tmp_path, forced_doc(), "full.json")
        assert cli.main(["simulate", "--config", half, "--out", str(tmp_path / "half")]) == 0
        (tmp_path / "half" / "meta.json").unlink()
        tail = tmp_path / "tail"
        argv = ["simulate", "--config", full, "--out", str(tail)]
        assert cli.main(argv + ["--resume", str(tmp_path / "half" / "final.bdna")]) == 0
        meta = json.loads((tail / "meta.json").read_text())
        assert meta["anchor"] == "reanchored" and meta["anchor_t"] == 0.5
        capsys.readouterr()
        code, rows = self._run_rows(capsys, full, tail)
        assert code == 0
        assert rows["run-envelopes"][0] == "PASS"

    @pytest.mark.parametrize("kind", ["sphere", "torus"])
    def test_library_checks_make_no_extra_right_hand_side(self, monkeypatch, kind):
        # only the tangent row evaluates rhs_u (5 probes, one central
        # difference each); the envelope row records the tendencies the
        # stepper already made, as simulate does
        from bardina2d import dynamics

        calls = []
        inner = dynamics.rhs_u

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(dynamics, "rhs_u", counted)
        if kind == "sphere":
            plan, sigma = basis.build_plan(basis.sphere(), 8), 0.0
        else:
            plan, sigma = basis.build_plan(basis.torus(TWO_PI), 6), 0.5
        params = dynamics.ModelParams(1.0, 1.0, sigma, dynamics.zero_forcing(plan))
        rows = checks.library_checks(plan, params, seed=0, dt=0.005)
        assert [ok for _, ok, _ in rows] == [True] * 5
        assert len(calls) == 10

    def test_selftest_sign_fault_hook(self, tmp_path, capsys):
        assert cli.main(["selftest", "--inject-sign-fault"]) == 1
        text = capsys.readouterr().out
        assert "operator-identities" in text and "FAIL" in text
        status = {line.split()[0]: line.split()[1] for line in text.splitlines()[1:]}
        # b_form sees the fault on the torus too, where the cancellation
        # identities are blind to it
        assert status["sphere:operator-identities"] == "FAIL"
        assert status["torus:operator-identities"] == "FAIL"
        # the round trip rotates the gradient into the velocity, which no
        # longer analyzes back to psi; the alias row rotates on both grids
        # alike, so they still agree
        for kind in ("sphere", "torus"):
            assert status[f"{kind}:transform-roundtrip"] == "FAIL"
            assert status[f"{kind}:transform-alias"] == "PASS"


class TestColdStart:
    # each command runs in a fresh interpreter; this one has scipy loaded
    SCRIPT = """
import json, sys
from bardina2d import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
mods = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": mods, "checks": "bardina2d.checks" in sys.modules,
                  "fft": "numpy.fft" in sys.modules, "random": "numpy.random" in sys.modules}))
"""

    def _fresh_run(self, runs):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(runs)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0] * len(runs)
        return report

    def _all_runs(self, tmp_path):
        # every command on both geometries, each drawing random data: a
        # random initial state, a tangent ensemble, the check battery's probes
        lyap = {"n_ensemble": 2, "t_transient": 0.0, "t_average": 0.5, "renorm_interval": 0.25}
        random = {"kind": "random", "seed": 4}
        runs = []
        for name, doc in (
            ("sphere", decay_doc(initial=random, lyapunov=lyap)),
            ("torus", forced_doc(lyapunov=lyap)),
        ):
            config = write_config(tmp_path, doc, name + ".json")
            for command in ("simulate", "lyapunov", "bounds", "verify"):
                # verify rechecks the simulate run directory
                out = tmp_path / f"{name}-{'simulate' if command == 'verify' else command}"
                runs.append([command, "--config", config, "--out", str(out)])
        return self._fresh_run(runs + [["selftest"]])

    def test_no_command_imports_scipy(self, tmp_path):
        assert self._all_runs(tmp_path)["scipy"] == []

    def test_no_command_imports_numpy_random(self, tmp_path):
        # every seeded draw goes through operators.NormalStream
        assert self._all_runs(tmp_path)["random"] is False

    def _torus_runs(self, tmp_path):
        lyap = {"n_ensemble": 2, "t_transient": 0.0, "t_average": 0.5, "renorm_interval": 0.25}
        torus = write_config(tmp_path, forced_doc(lyapunov=lyap))
        return self._fresh_run([
            ["simulate", "--config", torus, "--out", str(tmp_path / "t")],
            ["lyapunov", "--config", torus, "--out", str(tmp_path / "l")],
            ["bounds", "--config", torus, "--out", str(tmp_path / "b")],
        ])

    def test_running_commands_never_import_the_check_battery(self, tmp_path):
        assert self._torus_runs(tmp_path)["checks"] is False

    def test_torus_commands_never_import_numpy_fft(self, tmp_path):
        # the torus transforms are matrix products; only the sphere uses np.fft
        assert self._torus_runs(tmp_path)["fft"] is False


def _non_finite_cases():
    """(key path, config document holding the marker "@X@" at that key)."""
    lyap = {"n_ensemble": 2, "t_transient": 0.0, "t_average": 0.5, "renorm_interval": 0.25}
    X = "@X@"
    cases = [(key, forced_doc(**{key: X})) for key in ("length", "nu", "alpha", "sigma")]
    for key in ("slope", "energy"):
        cases.append((f"initial.{key}", forced_doc(initial={"kind": "random", key: X})))
    eigen = {"kind": "eigenmode", "mode": [3, 1], "amplitude": X}
    cases.append(("initial.amplitude", decay_doc(initial=eigen)))
    for key in ("dt", "t_end"):
        cases.append((f"scheme.{key}", forced_doc(scheme=dict(forced_doc()["scheme"], **{key: X}))))
    for key in ("t_transient", "t_average", "renorm_interval"):
        cases.append((f"lyapunov.{key}", forced_doc(lyapunov=dict(lyap, **{key: X}))))
    cases.append(("forcing.modes[0]", forced_doc(forcing={"modes": [[1, 2, X]]})))
    cases.append(("forcing.harmonic[1]", forced_doc(forcing={"harmonic": [0.2, X]})))
    cases.append(("sweep.values[1]", forced_doc(sweep={"key": "nu", "values": [1.0, X]})))
    return cases


class TestErrorPaths:
    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    @pytest.mark.parametrize(
        "key,doc", [pytest.param(key, doc, id=key) for key, doc in _non_finite_cases()]
    )
    def test_non_finite_number_is_rejected(self, tmp_path, capsys, key, doc, literal):
        # Python's json reads NaN and +-Infinity, and an integer too large
        # for a float; each must fail the parse and name its key
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc).replace('"@X@"', literal))
        out = tmp_path / "out"
        for command in ("simulate", "lyapunov", "bounds"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key}: ") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "index", [[2.7, 1], ["2", 1], [True, 0], ["a", 1], [None, 1]],
        ids=["float", "string-digit", "bool", "string", "null"],
    )
    @pytest.mark.parametrize("key", ["initial.mode", "forcing.modes[0]"])
    def test_mode_index_must_be_integers(self, tmp_path, capsys, index, key):
        # one check for both blocks: no index is converted, and none crashes
        if key == "initial.mode":
            doc = decay_doc(truncation=4, initial={"kind": "eigenmode", "mode": index})
        else:
            doc = decay_doc(truncation=4, forcing={"modes": [index + [1.0]]})
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: mode indices must be integers")
        assert not out.exists()

    def test_step_count_beyond_the_float_range_exits_cleanly(self, tmp_path, capsys):
        # t_end / dt overflows to inf: simulate died on an OverflowError
        # traceback, and so did verify's envelope row, 400 steps of dt 1e306
        doc = forced_doc(scheme={"dt": 1e-300, "t_end": 1e10})
        out = tmp_path / "out"
        argv = ["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_end - t_start=") and "not a finite number" in err
        assert not out.exists()
        doc = forced_doc(scheme={"dt": 1e306, "t_end": 1e306})
        assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 1
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("gronwall-envelopes")
        )
        assert row.split()[1] == "FAIL" and "not a finite number of steps" in row, row

    @pytest.mark.parametrize("base,code", [(ModelError, 2), (DegenerateEnsembleError, 1)])
    def test_exit_code_follows_the_base_class(self, monkeypatch, capsys, base, code):
        # a package error that `cli.main` does not name still exits cleanly
        class NewError(base):
            pass

        def dispatch(args):
            raise NewError("novel")

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert cli.main(["bounds", "--config", "unused.json"]) == code
        assert capsys.readouterr().err == "error: novel\n"

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert cli.main(["bounds", "--config", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key",
        [("simulate", "seed"), ("simulate", "initial.seed"), ("lyapunov", "lyapunov.seed")],
    )
    def test_negative_seed_names_its_key(self, tmp_path, capsys, command, key):
        # the generator seeds from abs(seed), so -4 would silently run seed 4
        lyap = {"n_ensemble": 2, "t_average": 0.5, "renorm_interval": 0.25}
        if key == "seed":
            doc = forced_doc(seed=-4)
        elif key == "initial.seed":
            doc = forced_doc(initial={"kind": "random", "seed": -4})
        else:
            doc = forced_doc(lyapunov=dict(lyap, seed=-4))
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key}: expected a non-negative integer, got -4\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,changes",
        [
            ("alpha", {"alpha": 1e-300}),
            ("nu", {"nu": 1e-300}),
            ("length", {"geometry": "torus", "length": 1e200}),
        ],
        ids=["alpha", "nu", "length"],
    )
    def test_underflowing_parameter_names_its_key(self, tmp_path, capsys, key, changes):
        # the parser takes each value, but alpha^2, nu^2 alpha^2 or lambda_1
        # is 0, and the energy bounds divide by it
        doc = {
            "geometry": "sphere", "truncation": 4, "nu": 1.0, "alpha": 1.0, "sigma": 0.1,
            "forcing": {"modes": [[2, -1, 100000.0]]}, "initial": {"kind": "zero"},
            "scheme": {"dt": 0.001, "t_end": 0.01, "stride": 7, "method": "if-euler"},
            **changes,
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in ("simulate", "bounds", "verify"):
            assert cli.main([command, "--config", config, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key}: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha", [1e-100, 1e100, 1e-79], ids=["alpha4-underflow", "alpha4-overflow", "ell-overflow"]
    )
    def test_inertial_block_names_alpha(self, tmp_path, capsys, alpha):
        # alpha^2 passes the parser, but the sphere's inertial block divides
        # by lambda_1 alpha^4; it wrote "ell": Infinity, not JSON, or crashed
        doc = {
            "geometry": "sphere", "truncation": 4, "nu": 1.0, "alpha": alpha, "sigma": 0.1,
            "forcing": {"modes": [[2, -1, 100000.0]]}, "initial": {"kind": "zero"},
            "scheme": {"dt": 0.001, "t_end": 0.01, "stride": 7, "method": "if-euler"},
        }
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha: ") and "lambda_1 alpha^4" in err
        assert not out.exists()
        doc["alpha"], doc["sweep"] = 1.0, {"key": "alpha", "values": [1.0, alpha]}
        assert cli.main(["bounds", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: sweep.values[1]: ")
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        config = write_config(tmp_path, forced_doc())
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x"), "--seed", "-3"])
        assert exc.value.code == 2
        assert "argument --seed: expected a non-negative integer, got '-3'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_torus_sigma_zero(self, tmp_path, capsys):
        doc = forced_doc(sigma=0.0)
        config = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x")]) == 2
        assert "sigma" in capsys.readouterr().err


class TestThreadPin:
    def test_conftest_pins_the_cli_variables(self):
        import conftest

        assert conftest.THREAD_VARS == cli._THREAD_VARS
        assert all(os.environ[var] == "1" for var in cli._THREAD_VARS)
