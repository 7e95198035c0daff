"""Binary snapshot format: roundtrip fidelity and corruption detection."""

import json
import struct
import zlib

import numpy as np
import pytest

from bardina2d import basis, cli, dynamics, operators as ops, snapshot
from bardina2d.errors import CorruptSnapshotError, SnapshotMismatchError


def sphere_plan(trunc=4):
    return basis.build_plan(basis.sphere(), trunc)


def torus_plan(trunc=3):
    return basis.build_plan(basis.torus(2.0 * np.pi), trunc)


def params_for(plan, nu=0.7, alpha=1.2, sigma=0.0):
    return dynamics.ModelParams(nu, alpha, sigma, dynamics.zero_forcing(plan))


def rand_state(plan, seed=0):
    rng = np.random.default_rng(seed)
    return ops.VelocityState(
        rng.standard_normal(plan.n_modes), rng.standard_normal(plan.n_harmonic)
    )


class TestRoundtrip:
    def test_sphere_bitwise(self, tmp_path):
        plan = sphere_plan()
        params = params_for(plan)
        state = rand_state(plan, 1)
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan, state, 2.5, params)
        snap = snapshot.load_snapshot(path)
        assert snap.geometry_kind == basis.SPHERE
        assert snap.truncation == 4
        assert snap.t == 2.5
        assert (snap.nu, snap.alpha, snap.sigma) == (0.7, 1.2, 0.0)
        assert np.array_equal(snap.psi, state.psi)
        assert snap.harmonic.size == 0

    def test_torus_bitwise_with_harmonic(self, tmp_path):
        plan = torus_plan()
        params = params_for(plan, sigma=0.4)
        state = rand_state(plan, 2)
        path = tmp_path / "t.bdna"
        snapshot.save_snapshot(path, plan, state, 0.0, params)
        snap = snapshot.load_snapshot(path)
        assert np.array_equal(snap.psi, state.psi)
        assert np.array_equal(snap.harmonic, state.harmonic)

    def test_as_state_returns_copies(self, tmp_path):
        plan = torus_plan()
        state = rand_state(plan, 3)
        path = tmp_path / "t.bdna"
        snapshot.save_snapshot(path, plan, state, 1.0, params_for(plan, sigma=0.1))
        snap = snapshot.load_snapshot(path)
        out = snapshot.as_state(snap)
        out.psi[:] = 0.0
        out.harmonic[:] = 0.0
        assert np.array_equal(snap.psi, state.psi)
        assert np.array_equal(snap.harmonic, state.harmonic)

    def test_save_load_save_identical_bytes(self, tmp_path):
        plan = sphere_plan()
        params = params_for(plan)
        state = rand_state(plan, 4)
        a, b = tmp_path / "a.bdna", tmp_path / "b.bdna"
        snapshot.save_snapshot(a, plan, state, 3.0, params)
        snap = snapshot.load_snapshot(a)
        snapshot.save_snapshot(b, plan, snapshot.as_state(snap), snap.t, params)
        assert a.read_bytes() == b.read_bytes()


    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        # the checksum is formed after the header and payload are written
        plan = sphere_plan()
        params = params_for(plan)
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 5), 1.0, params)
        before = path.read_bytes()

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(zlib, "crc32", interrupted)
        with pytest.raises(KeyboardInterrupt):
            snapshot.save_snapshot(path, plan, rand_state(plan, 6), 2.0, params)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.bdna"]

    def test_writer_uses_current_version(self, tmp_path):
        plan = sphere_plan()
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 12), 0.0, params_for(plan))
        assert struct.unpack_from("<I", path.read_bytes(), 4) == (3,)
        assert snapshot.load_snapshot(path).length == 0.0


def write_old(path, plan, state, t, params, version):
    """A torus snapshot in the version 1 or 2 layout, which has no length
    field; the version 1 CRC covers the coefficient bytes only."""
    body = np.concatenate([state.psi, state.harmonic]).astype("<f8").tobytes()
    header = struct.pack(
        "<4sIBI4dQ", b"BDNA", version, 1, plan.truncation, t,
        params.nu, params.alpha, params.sigma, plan.n_modes + plan.n_harmonic,
    )
    crc = zlib.crc32(body, zlib.crc32(header) if version == 2 else 0)
    path.write_bytes(header + body + struct.pack("<I", crc))


class TestOldVersions:
    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_refused(self, tmp_path, capsys, version):
        # neither layout records the torus period, so neither may resume
        plan = torus_plan()
        params = params_for(plan, sigma=0.3)
        path = tmp_path / "old.bdna"
        write_old(path, plan, rand_state(plan, 13), 0.5, params, version)
        message = f"unsupported format version {version}"
        with pytest.raises(CorruptSnapshotError, match=message):
            snapshot.load_snapshot(path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "geometry": "torus", "length": 2.0 * np.pi, "truncation": plan.truncation,
            "nu": params.nu, "alpha": params.alpha, "sigma": params.sigma, "seed": 3,
            "initial": {"kind": "random", "slope": 2.0, "energy": 0.5},
            "scheme": {"dt": 0.01, "t_end": 1.0, "stride": 25},
        }))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config), "--resume", str(path), "--out", str(out)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCorruption:
    def write_one(self, tmp_path):
        plan = sphere_plan()
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 5), 1.5, params_for(plan))
        return path

    def test_truncated_file(self, tmp_path):
        path = self.write_one(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "s.bdna"
        path.write_bytes(b"BDNA\x01")
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_bad_magic(self, tmp_path):
        path = self.write_one(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_bad_version(self, tmp_path):
        path = self.write_one(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", snapshot.VERSION + 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_bad_geometry_tag(self, tmp_path):
        path = self.write_one(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = self.write_one(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-12] ^= 0x40  # inside the payload, ahead of the CRC trailer
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_flipped_time_bit_fails_crc(self, tmp_path):
        # t sits at bytes 13..20; flip a low mantissa bit and the lowest
        # exponent bit (0.25 -> 0.125, a whole number of steps of most dt)
        plan = sphere_plan()
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 5), 0.25, params_for(plan))
        good = path.read_bytes()
        for offset, mask in ((13, 0x01), (19, 0x10)):
            blob = bytearray(good)
            blob[offset] ^= mask
            path.write_bytes(bytes(blob))
            with pytest.raises(CorruptSnapshotError):
                snapshot.load_snapshot(path)

    def test_flipped_parameter_bit_fails_crc(self, tmp_path):
        path = self.write_one(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[21 + 8 + 3] ^= 0x04  # inside alpha
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_flipped_length_bit_fails_crc(self, tmp_path):
        plan = torus_plan()
        path = tmp_path / "t.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 5), 0.25, params_for(plan))
        blob = bytearray(path.read_bytes())
        blob[45 + 2] ^= 0x08  # inside length, after t, nu, alpha and sigma
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self.write_one(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CorruptSnapshotError):
            snapshot.load_snapshot(path)


class TestMismatch:
    def test_geometry_mismatch(self, tmp_path):
        plan_s = sphere_plan()
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan_s, rand_state(plan_s, 6), 0.0, params_for(plan_s))
        snap = snapshot.load_snapshot(path)
        with pytest.raises(SnapshotMismatchError):
            snapshot.check_snapshot(snap, torus_plan())

    def test_truncation_mismatch(self, tmp_path):
        plan = sphere_plan(4)
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 7), 0.0, params_for(plan))
        snap = snapshot.load_snapshot(path)
        with pytest.raises(SnapshotMismatchError):
            snapshot.check_snapshot(snap, sphere_plan(5))

    def test_params_mismatch(self, tmp_path):
        plan = sphere_plan()
        path = tmp_path / "s.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 8), 0.0, params_for(plan, nu=0.7))
        snap = snapshot.load_snapshot(path)
        with pytest.raises(SnapshotMismatchError):
            snapshot.check_snapshot(snap, plan, params_for(plan, nu=0.8))

    def test_torus_length_mismatch(self, tmp_path):
        plan = torus_plan()
        params = params_for(plan, sigma=0.2)
        path = tmp_path / "t.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 9), 1.0, params)
        snap = snapshot.load_snapshot(path)
        assert snap.length == 2.0 * np.pi
        other = basis.build_plan(basis.torus(3.0), plan.truncation)
        with pytest.raises(SnapshotMismatchError, match="length"):
            snapshot.check_snapshot(snap, other, params)

    def test_matching_check_passes(self, tmp_path):
        plan = torus_plan()
        params = params_for(plan, sigma=0.2)
        path = tmp_path / "t.bdna"
        snapshot.save_snapshot(path, plan, rand_state(plan, 9), 4.0, params)
        snap = snapshot.load_snapshot(path)
        snapshot.check_snapshot(snap, plan)
        snapshot.check_snapshot(snap, plan, params)
