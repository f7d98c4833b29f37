"""Round-trip, format, config, and CLI surface tests."""

import struct

import numpy as np
import pytest

from lidarcal import checkpoint_io, cli, dataset_io, render
from lidarcal.config import parse_config, load_config
from lidarcal.dataset_io import FormatError
from lidarcal.nets import set_weights
from lidarcal.oracle import OracleConfig, generate_dataset
from lidarcal.signal import CameraConstants
from lidarcal.train import TrainConfig, build_nets, train
from lidarcal.autodiff import Tensor, no_record


def consts16():
    return CameraConstants(L=16)


def grid_distance(consts, k=10):
    return 0.5 * (k * consts.c / consts.f - consts.d)


def small_dataset(seed=0, groups=3, reps=4):
    consts = consts16()
    cfg = OracleConfig(consts=consts, distance_mm=grid_distance(consts), base_seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed + 50))
    alpha = (rng.random(16) < 0.5).astype(np.float64)
    alpha[0] = 1.0
    # quantize through f32 so the stored params round-trip exactly
    params = rng.random((groups, 8)).astype(np.float32).astype(np.float64)
    return generate_dataset(alpha, params, reps, cfg)


SMOKE_CFG = """
camera.L = 16
oracle.distance_mm = 1198.96229
data.groups = 3
data.reps = 6
train.iterations = 3
train.batch_size = 8
train.critic_iters = 1
train.z_dim = 4
opt.batch_size = 8
opt.max_iterations = 2
eval.n = 16
"""


# ---------------------------------------------------------------- dataset format


def test_dataset_roundtrip_bit_exact():
    ds = small_dataset()
    blob = dataset_io.serialize_dataset(ds)
    ds2 = dataset_io.deserialize_dataset(blob)
    np.testing.assert_array_equal(ds.alpha, ds2.alpha)
    np.testing.assert_array_equal(ds.params, ds2.params)
    np.testing.assert_array_equal(ds.batches, ds2.batches)
    assert ds.base_seed == ds2.base_seed
    assert ds.oracle_digest == ds2.oracle_digest
    assert dataset_io.serialize_dataset(ds2) == blob


def test_dataset_digest_sensitivity():
    ds = small_dataset()
    d1 = dataset_io.dataset_digest(ds)
    assert d1 == dataset_io.dataset_digest(ds) and len(d1) == 32
    ds.batches[0, 0, 0] = 1.0 - ds.batches[0, 0, 0]
    assert dataset_io.dataset_digest(ds) != d1


def test_dataset_format_rejects_corruption():
    blob = dataset_io.serialize_dataset(small_dataset())
    with pytest.raises(FormatError):
        dataset_io.deserialize_dataset(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        dataset_io.deserialize_dataset(blob[:-3])
    with pytest.raises(FormatError):
        dataset_io.deserialize_dataset(blob + b"\0")


def test_dataset_every_proper_prefix_is_a_format_error():
    blob = dataset_io.serialize_dataset(small_dataset())
    for n in range(len(blob)):
        with pytest.raises(FormatError):
            dataset_io.deserialize_dataset(blob[:n])


def test_bit_packing_msb_first():
    code = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0], dtype=np.float64)
    packed = dataset_io.pack_bits(code)
    assert packed == bytes([0b10110001, 0b10000000])
    np.testing.assert_array_equal(dataset_io.unpack_bits(packed, 10), code)


# ---------------------------------------------------------------- checkpoint format


def test_checkpoint_roundtrip_bit_exact_and_forward_identical():
    ds = small_dataset()
    cfg = TrainConfig(z_dim=4, batch_size=4, critic_iters=1, iterations=2, seed=1)
    ck, _ = train(ds, cfg)
    blob = checkpoint_io.serialize_checkpoint(ck)
    ck2 = checkpoint_io.deserialize_checkpoint(blob)
    assert checkpoint_io.serialize_checkpoint(ck2) == blob
    assert ck2.cfg == cfg and ck2.iteration == ck.iteration
    assert ck2.dataset_digest == ck.dataset_digest

    G1, _ = build_nets(16, cfg)
    G2, _ = build_nets(16, cfg)
    set_weights(G1, ck.g_weights)
    set_weights(G2, ck2.g_weights)
    z = np.random.Generator(np.random.PCG64(0)).normal(size=(3, 4))
    C = np.random.Generator(np.random.PCG64(1)).random((3, 8))
    with no_record():
        a = G1.forward(Tensor(C), Tensor(z)).data
        b = G2.forward(Tensor(C), Tensor(z)).data
    np.testing.assert_array_equal(a, b)


def test_checkpoint_rejects_bad_magic_and_truncation():
    ds = small_dataset()
    ck, _ = train(ds, TrainConfig(z_dim=4, batch_size=4, critic_iters=1, iterations=1))
    blob = checkpoint_io.serialize_checkpoint(ck)
    with pytest.raises(FormatError):
        checkpoint_io.deserialize_checkpoint(b"NOPE" + blob[4:])
    with pytest.raises(FormatError):
        checkpoint_io.deserialize_checkpoint(blob[:-5])


# ---------------------------------------------------------------- rasters


def test_pgm_golden_header_and_payload():
    rng = np.random.Generator(np.random.PCG64(0))
    batch = (rng.random((64, 128)) < 0.5).astype(np.float64)
    blob = render.codes_to_pgm(batch)
    assert blob.startswith(b"P5\n128 64\n255\n")
    payload = blob[len(b"P5\n128 64\n255\n"):]
    assert len(payload) == 64 * 128
    assert set(payload) <= {0, 255}
    np.testing.assert_array_equal(
        np.frombuffer(payload, dtype=np.uint8).reshape(64, 128) / 255.0, batch)


def test_pgm_rejects_bad_input():
    with pytest.raises(ValueError):
        render.codes_to_pgm(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        render.codes_to_pgm(np.full((2, 4), 1.5))


def test_histogram_bins_and_clipping():
    dmax = 1000.0
    lefts, counts = render.depth_histogram([0.0, 999.9, -5.0, 2000.0, 500.0], dmax)
    assert lefts.shape == (200,) and counts.shape == (200,)
    assert counts.sum() == 5
    assert counts[0] == 2  # 0.0 and the clipped -5.0
    assert counts[-1] == 2  # 999.9 and the clipped 2000.0
    lines = render.histogram_csv_lines([100.0], dmax)
    assert lines[0] == "bin_left_mm,count" and len(lines) == 201


# ---------------------------------------------------------------- config


def test_config_defaults_and_overrides():
    cfg = parse_config("")
    assert cfg.camera.L == 128 and cfg.train.lambda_gp == 10.0
    cfg = parse_config("camera.L = 16\ntrain.lr = 2e-3\nopt.beta = 0.5\n"
                       "oracle.distance_mm = 1198.96229\n")
    assert cfg.camera.L == 16 and cfg.train.lr == 2e-3 and cfg.opt.beta == 0.5
    assert cfg.oracle.consts is cfg.camera


def test_config_rejects_unknown_key_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("camera.L = 128\nnot.a.key = 1\n")


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        parse_config("camera.L = twelve")
    with pytest.raises(ValueError):
        parse_config("data.reps = 0")
    with pytest.raises(ValueError):
        parse_config("camera.L = 16")  # default distance exceeds delta_max at L=16


def test_config_comments_and_blank_lines():
    cfg = parse_config("# comment\n\ntrain.seed = 9  # trailing\n")
    assert cfg.train.seed == 9


def test_config_p_star_list():
    cfg = parse_config("oracle.p_star = 0.3,0.4,0.5,0.6,0.7,0.3,0.4,0.5")
    assert cfg.oracle.p_star == (0.3, 0.4, 0.5, 0.6, 0.7, 0.3, 0.4, 0.5)
    with pytest.raises(ValueError):
        parse_config("oracle.p_star = 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")


# ---------------------------------------------------------------- CLI


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "run.cfg").write_text(SMOKE_CFG)
    return tmp_path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_cli_end_to_end(workdir):
    cfgp = workdir / "run.cfg"
    ds = workdir / "ds.lcd"
    ck = workdir / "ck.lck"
    pr = workdir / "params.txt"
    rep = workdir / "report.csv"
    assert run_cli("gen-data", "--config", cfgp, "--out", ds) == 0
    assert run_cli("inspect", ds) == 0
    assert run_cli("train", "--config", cfgp, "--dataset", ds, "--out", ck) == 0
    assert run_cli("inspect", ck) == 0
    assert (workdir / "ck.lck.losses.csv").read_text().startswith("iteration,")
    assert run_cli("optimize", "--config", cfgp, "--checkpoint", ck, "--out", pr) == 0
    assert (workdir / "params.txt.trace.csv").exists()
    params = cli.read_params_record(pr)
    assert params.shape == (8,) and np.all((params > 0) & (params < 1))
    assert run_cli("eval", "--config", cfgp, "--params", pr, "--out", rep) == 0
    text = rep.read_text()
    assert "# summary" in text and "# histogram before" in text and "# histogram after" in text
    pgm = workdir / "ds.pgm"
    assert run_cli("render", "--input", ds, "--out", pgm) == 0
    assert pgm.read_bytes().startswith(b"P5\n16 18\n255\n")
    assert run_cli("inspect", pgm) == 0


def test_cli_gen_data_threads_bit_identical(workdir):
    cfgp = workdir / "run.cfg"
    a, b = workdir / "a.lcd", workdir / "b.lcd"
    assert run_cli("gen-data", "--config", cfgp, "--out", a, "--threads", 1) == 0
    assert run_cli("gen-data", "--config", cfgp, "--out", b, "--threads", 4) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_train_resume_matches_straight_run(workdir):
    cfgp = workdir / "run.cfg"
    cfg6 = workdir / "run6.cfg"
    cfg6.write_text(SMOKE_CFG.replace("train.iterations = 3", "train.iterations = 6"))
    ds = workdir / "ds.lcd"
    run_cli("gen-data", "--config", cfgp, "--out", ds)
    ck3, ck6, ck6r = workdir / "ck3.lck", workdir / "ck6.lck", workdir / "ck6r.lck"
    assert run_cli("train", "--config", cfgp, "--dataset", ds, "--out", ck3) == 0
    assert run_cli("train", "--config", cfg6, "--dataset", ds, "--out", ck6) == 0
    assert run_cli("train", "--config", cfg6, "--dataset", ds, "--out", ck6r,
                   "--resume", ck3) == 0
    assert ck6.read_bytes() == ck6r.read_bytes()


def test_cli_exit_codes(workdir):
    cfgp = workdir / "run.cfg"
    # validation failures -> 2
    bad = workdir / "bad.cfg"
    bad.write_text("no.such.key = 1\n")
    assert run_cli("gen-data", "--config", bad, "--out", workdir / "x") == 2
    zero = workdir / "zero.cfg"
    zero.write_text(SMOKE_CFG + "data.reps = 0\n")
    assert run_cli("gen-data", "--config", zero, "--out", workdir / "x") == 2
    garbage = workdir / "garbage.bin"
    garbage.write_bytes(b"\x00\x01\x02\x03 not a real artifact")
    assert run_cli("inspect", garbage) == 2
    ds = workdir / "ds.lcd"
    run_cli("gen-data", "--config", cfgp, "--out", ds)
    corrupted = workdir / "corrupt.lcd"
    corrupted.write_bytes(b"XXXX" + ds.read_bytes()[4:])
    assert run_cli("inspect", corrupted) == 2
    # i/o failures -> 1
    assert run_cli("train", "--config", cfgp, "--dataset", workdir / "missing.lcd",
                   "--out", workdir / "x") == 1
    assert run_cli("inspect", workdir / "missing.bin") == 1


def test_cli_checkpoint_missing_block_exits_2(workdir):
    cfgp = workdir / "run.cfg"
    ds, ck = workdir / "ds.lcd", workdir / "ck.lck"
    run_cli("gen-data", "--config", cfgp, "--out", ds)
    assert run_cli("train", "--config", cfgp, "--dataset", ds, "--out", ck) == 0
    blob = ck.read_bytes()
    block = checkpoint_io._pack_array(
        "g.fc_b", checkpoint_io.read_checkpoint(ck).g_weights["fc_b"])
    assert blob.count(block) == 1
    count_at = 6 + 4 + struct.unpack_from("<I", blob, 6)[0]
    (nblocks,) = struct.unpack_from("<I", blob, count_at)
    cut = workdir / "cut.lck"
    cut.write_bytes(blob[:count_at] + struct.pack("<I", nblocks - 1)
                    + blob[count_at + 4:].replace(block, b""))
    with pytest.raises(FormatError, match="g.fc_b"):
        checkpoint_io.read_checkpoint(cut)
    assert run_cli("inspect", cut) == 2
    assert run_cli("optimize", "--config", cfgp, "--checkpoint", cut,
                   "--out", workdir / "p.txt") == 2


def test_cli_dataset_camera_mismatch(workdir):
    cfgp = workdir / "run.cfg"
    ds = workdir / "ds.lcd"
    run_cli("gen-data", "--config", cfgp, "--out", ds)
    other = workdir / "other.cfg"
    other.write_text(SMOKE_CFG.replace("camera.L = 16", "camera.L = 32")
                     .replace("oracle.distance_mm = 1198.96229",
                              "oracle.distance_mm = 1198.96229"))
    assert run_cli("train", "--config", other, "--dataset", ds,
                   "--out", workdir / "x") == 2


def test_cli_seed_override_changes_dataset(workdir):
    cfgp = workdir / "run.cfg"
    a, b, c = workdir / "a.lcd", workdir / "b.lcd", workdir / "c.lcd"
    run_cli("gen-data", "--config", cfgp, "--out", a)
    run_cli("gen-data", "--config", cfgp, "--out", b, "--seed", 123)
    run_cli("gen-data", "--config", cfgp, "--out", c, "--seed", 123)
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()


def test_params_record_roundtrip(tmp_path):
    from lidarcal.inverse import OptResult
    p = np.linspace(0.05, 0.95, 8)
    res = OptResult(params=p, converged=True, iterations=17)
    path = tmp_path / "p.txt"
    cli.write_params_record(path, res)
    np.testing.assert_array_equal(cli.read_params_record(path), p)
    path.write_text("p0 = 0.5\n")
    with pytest.raises(FormatError):
        cli.read_params_record(path)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("train.seed = 4\n")
    assert load_config(path).train.seed == 4
