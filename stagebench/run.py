#!/usr/bin/env python3
"""Stage benchmark of the lidarcal pipeline, run from the repository root.

    python3 stagebench/run.py --workload dataset --seed 1 --seconds 20 --trace 0

Every round runs the five pipeline stages through `lidarcal.cli.main`, in
this one process, as a user runs them: gen-data, the readers (render and
inspect), train, optimize and eval. A workload fixes the size of each stage;
the seed fixes every random input. Rounds repeat until --seconds have passed,
and each stage's rate is the median over rounds of its work over its wall
time. With --trace 1 the rounds alternate untraced and traced, and the run
reports per-layer figures instead (see tracing.py). The last line of
standard output is the result as JSON. See README.md for the workloads and
the map from layer metrics to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import formats
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

L = 128
FIXTURE = (200, 64)          # acceptance fixture: groups x reps
SMALL = (20, 64)             # a tenth of the fixture
# the fixture's transmitted code for every seed: a transmit's cost follows the
# code's edge count, so a code drawn per seed would change the work per run
CODE_SEED = 1
CODE_RUN_LENGTH = 8
PARAMS_MARGIN = 0.1
P_STAR = (0.45, 0.55, 0.50, 0.45, 0.55, 0.45, 0.55, 0.50)
CORNER = (0.0,) * 8
DISTANCE_MM = 2847.820809
DELTA_IN_MM = 30.0
EVAL_N = 512
SETUP_REPEATS = 3
P_STAR_MIN_R = 90.0
CURRICULUM_CONSTANT = 10000.0
HEADER_CUT = 13              # the known fault: raises struct.error, not exit 2
# file cut points for the malformed-LCD1 readers: inside the 27-byte header,
# inside the oracle digest, inside the payload, one byte short
LCD1_CUTS = (HEADER_CUT, 40, None, -1)
MISSING_BLOCK = "g.fc_b"


@dataclass(frozen=True)
class Workload:
    gen: tuple            # groups, reps written by the round's gen-data
    train_iters: int
    train_batch: int
    opt_iters: int
    opt_batch: int
    lcd1_faults: bool     # malformed LCD1 files through inspect and render
    lck1_fault: bool      # optimize from a checkpoint missing a generator block

    @property
    def threshold(self) -> int:
        """Curriculum threshold at 70% of the run, as in the fixture (3500 of
        5000): iterations 0..threshold are moment-only, the rest adversarial."""
        return self.train_iters * 7 // 10 - 1


WORKLOADS = {
    "dataset": Workload(gen=FIXTURE, train_iters=10, train_batch=8,
                        opt_iters=20, opt_batch=16, lcd1_faults=True, lck1_fault=False),
    "train": Workload(gen=SMALL, train_iters=20, train_batch=64,
                      opt_iters=20, opt_batch=16, lcd1_faults=False, lck1_fault=False),
    "calibrate": Workload(gen=SMALL, train_iters=10, train_batch=8,
                          opt_iters=10, opt_batch=512, lcd1_faults=False, lck1_fault=True),
}

END_TO_END = {
    "setup_s": "s",
    "gen_data_codes_per_s": "codes/s",
    "dataset_read_codes_per_s": "codes/s",
    "train_iters_per_s": "iter/s",
    "optimize_iters_per_s": "iter/s",
    "eval_codes_per_s": "codes/s",
    "peak_rss_mb": "MB",
}


def seeded_inputs(seed: int) -> dict:
    """Every seed the program receives, drawn from the workload seed."""
    rng = random.Random(seed)
    keys = ("oracle.base_seed", "data.params_seed", "train.seed", "opt.seed", "eval.baseline_seed")
    return {k: rng.randrange(1 << 31) for k in keys}


def config_text(wl: Workload, seeds: dict, data: tuple, train_iters: int | None = None) -> str:
    values = {
        "camera.L": L, "camera.delta_in": DELTA_IN_MM,
        "oracle.distance_mm": DISTANCE_MM, "oracle.p_star": ",".join(map(repr, P_STAR)),
        "data.groups": data[0], "data.reps": data[1], "data.code_density": 0.5,
        "data.code_seed": CODE_SEED, "data.code_run_length": CODE_RUN_LENGTH,
        "data.params_margin": PARAMS_MARGIN,
        "train.iterations": wl.train_iters if train_iters is None else train_iters,
        "train.curriculum_threshold": wl.threshold,
        "train.curriculum_constant": CURRICULUM_CONSTANT, "train.critic_iters": 5,
        "train.batch_size": wl.train_batch, "train.lr": 2e-4, "train.beta1": 0.5,
        "opt.batch_size": wl.opt_batch, "opt.max_iterations": wl.opt_iters,
        "opt.stop_threshold": 100.0, "eval.n": EVAL_N, **seeds,
    }
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def params_record(p) -> str:
    return "".join(f"p{i} = {v!r}\n" for i, v in enumerate(p))


class Failures(list):
    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


class Session:
    """Runs CLI commands in-process and keeps the operation counts."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.invocations = 0

    def call(self, stage: str, argv: list, expect: int = 0, counted: bool = True):
        """Run one command; returns (succeeded, stdout, seconds)."""
        gc.collect()  # each command starts from a clean heap, as a fresh process would
        self.invocations += 1
        if self.tracer:
            self.tracer.enter_stage(stage, self.invocations)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main([str(a) for a in argv])
        except Exception as e:  # a traceback out of main is a failed operation
            rc = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        ok = rc == expect
        if counted:
            self.attempted += 1
            self.failed += not ok
        if not ok and expect == 0:
            self.unexpected.append(f"{stage} {argv}: {rc} {err.getvalue().strip()}")
        return ok, out.getvalue(), seconds


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, cli):
        self.wl = WORKLOADS[workload]
        self.seeds = seeded_inputs(seed)
        self.work = work
        self.s = Session(cli)
        self.fail = Failures()
        self.first: dict[str, bytes] = {}
        self.malformed = [f"cut{c}.lcd" for c in LCD1_CUTS] + ["badmagic.lcd"]
        self.p: dict[str, Path] = {}

    SETUP_FILES = ("setup.cfg", "round.cfg", "init.cfg", "fault.cfg", "train.lcd", "init.lck",
                   "faulty.lck", "pstar.txt", "corner.txt")
    ROUND_FILES = ("data.lcd", "data.pgm", "model.lck", "params.txt", "result.csv",
                   "pstar.csv", "corner.csv", "bad.pgm", "bad.txt")

    def fresh_dir(self, name: str, files) -> Path:
        """Point `files` into a new directory.

        Every command writes to a path that does not exist yet: on ext4 with
        auto_da_alloc, truncating a file that was just written blocks for
        tens of milliseconds, which would be timed as the program's.
        """
        d = self.work / name
        d.mkdir()
        self.p.update({k: d / k for k in files})
        return d

    # -- set-up -----------------------------------------------------------
    def setup(self) -> list[float]:
        """Make every input; repeated, and each repeat must give the same bytes."""
        times, made, last = [], None, None
        for i in range(SETUP_REPEATS):
            d = self.fresh_dir(f"setup{i}", self.SETUP_FILES + tuple(self.malformed))
            t0 = time.perf_counter()
            self._setup_once()
            times.append(time.perf_counter() - t0)
            files = {k: self.p[k].read_bytes() for k in ("train.lcd", "init.lck", "faulty.lck")}
            self.fail.check(made is None or made == files,
                            "set-up is not byte-identical across repeats")
            made = files
            if last:
                shutil.rmtree(last)
            last = d
        return times

    def _setup_once(self) -> None:
        p, wl = self.p, self.wl
        p["setup.cfg"].write_text(config_text(wl, self.seeds, FIXTURE))
        p["round.cfg"].write_text(config_text(wl, self.seeds, wl.gen))
        p["fault.cfg"].write_text(config_text(wl, seeded_inputs(0), wl.gen))
        p["pstar.txt"].write_text(params_record(P_STAR))
        p["corner.txt"].write_text(params_record(CORNER))
        self._setup_call("gen-data", ["gen-data", "--config", p["setup.cfg"],
                                      "--out", p["train.lcd"]])
        p["init.cfg"].write_text(config_text(wl, self.seeds, FIXTURE, train_iters=0))
        self._setup_call("train", ["train", "--config", p["init.cfg"], "--dataset", p["train.lcd"],
                                   "--out", p["init.lck"]])
        blob = p["train.lcd"].read_bytes()
        for cut in LCD1_CUTS:
            p[f"cut{cut}.lcd"].write_bytes(blob[:cut] if cut else blob[:len(blob) // 2])
        p["badmagic.lcd"].write_bytes(b"LCDX" + blob[4:])
        # the same file for every seed: zero weights, zero digest, default config,
        # one generator block left out
        ck = formats.read_lck1(p["init.lck"].read_bytes())
        blocks = {k: np.zeros_like(v) for k, v in ck["blocks"].items() if k != MISSING_BLOCK}
        p["faulty.lck"].write_bytes(formats.write_lck1(
            ck["arch"], blocks, {"cfg": {}, "iteration": 0}, bytes(32)))

    def _setup_call(self, stage, argv):
        ok, _, _ = self.s.call(stage, argv, counted=False)
        if not ok:
            raise RuntimeError(f"set-up failed: {self.s.unexpected[-1]}")

    # -- one round --------------------------------------------------------
    def round(self) -> dict:
        """Run every operation of a round once; returns stage seconds and work."""
        p, wl, call = self.p, self.wl, self.s.call
        t, out = {}, {}
        _, out["gen-data"], t["gen-data"] = call(
            "gen-data", ["gen-data", "--config", p["round.cfg"], "--out", p["data.lcd"]])
        # the readers read the fixture-size file in every workload
        _, _, t["render"] = call("render", ["render", "--input", p["train.lcd"],
                                            "--out", p["data.pgm"]])
        _, out["inspect"], t["inspect"] = call("inspect", ["inspect", p["train.lcd"]])
        if wl.lcd1_faults:
            for name in self.malformed:
                call(tracing.FAULT_STAGE, ["inspect", p[name]], expect=2)
            # render shares the reader; its header-cut failure is counted once, on inspect
            for name in self.malformed:
                if name != f"cut{HEADER_CUT}.lcd":
                    call(tracing.FAULT_STAGE, ["render", "--input", p[name], "--out", p["bad.pgm"]],
                         expect=2)
        _, _, t["train"] = call("train", ["train", "--config", p["round.cfg"], "--dataset",
                                          p["train.lcd"], "--out", p["model.lck"]])
        _, _, t["optimize"] = call("optimize", ["optimize", "--config", p["round.cfg"],
                                                "--checkpoint", p["model.lck"],
                                                "--out", p["params.txt"]])
        if wl.lck1_fault:
            call(tracing.FAULT_STAGE, ["optimize", "--config", p["fault.cfg"], "--checkpoint",
                                       p["faulty.lck"], "--out", p["bad.txt"]], expect=2)
        _, _, e1 = call("eval", ["eval", "--config", p["round.cfg"], "--params", p["params.txt"],
                                 "--out", p["result.csv"]])
        _, _, e2 = call("eval", ["eval", "--config", p["round.cfg"], "--params", p["pstar.txt"],
                                 "--out", p["pstar.csv"]])
        t["eval"] = e1 + e2
        self.stdout = out
        g, r = wl.gen
        return {
            "seconds": t,
            "gen_data_codes_per_s": g * r / t["gen-data"],
            "dataset_read_codes_per_s": 2 * FIXTURE[0] * FIXTURE[1] / (t["render"] + t["inspect"]),
            "train_iters_per_s": wl.train_iters / t["train"],
            "optimize_iters_per_s": wl.opt_iters / t["optimize"],
            # each eval draws n codes before and n after
            "eval_codes_per_s": 2 * 2 * EVAL_N / t["eval"],
        }

    # -- output checks ----------------------------------------------------
    def checked(self, check) -> None:
        """Run a check; an output it cannot parse fails the run, not the benchmark."""
        try:
            check()
        except Exception as e:
            self.fail.append(f"{check.__name__} raised {type(e).__name__}: {e}")

    OUTPUTS = ("data.lcd", "data.pgm", "model.lck", "params.txt", "result.csv", "pstar.csv")

    def check_round(self) -> None:
        """Full checks on the first round; later rounds must repeat its bytes."""
        if self.s.unexpected:
            return  # the failed operation is reported; its outputs cannot be checked
        p = self.p
        files = {k: p[k].read_bytes() for k in self.OUTPUTS}
        files["losses"] = Path(f"{p['model.lck']}.losses.csv").read_bytes()
        files["trace"] = Path(f"{p['params.txt']}.trace.csv").read_bytes()
        files["inspect"] = self.stdout["inspect"].encode()
        if not self.first:
            self.first = files
            self.check_dataset()
            self.check_train()
            self.check_calibrate()
        else:
            for k, v in files.items():
                self.fail.check(v == self.first.get(k), f"{k} differs from the first round's")

    def check_dataset(self) -> None:
        f, p = self.fail, self.p
        blob = p["data.lcd"].read_bytes()
        printed = self.stdout["gen-data"].split("digest ")[-1].strip()
        f.check(printed == hashlib.sha256(blob).hexdigest(),
                "printed digest != SHA-256 of the file")
        self.check_lcd1(blob, self.wl.gen)
        fixture = p["train.lcd"].read_bytes()
        if self.wl.gen == FIXTURE:
            f.check(blob == fixture, "gen-data with one seed gave different bytes")
        ds = self.check_lcd1(fixture, FIXTURE)
        pixels = formats.read_pgm(p["data.pgm"].read_bytes())
        f.check(pixels.shape == (FIXTURE[0] * FIXTURE[1], L), "raster shape != codes x L")
        f.check(bool(np.all((pixels == 0) | (pixels == 255))), "raster holds a soft code")
        f.check(np.array_equal(pixels, ds["codes"].reshape(-1, L) * 255),
                "rendered raster != codes decoded from the file")
        header = f"L={L} groups={FIXTURE[0]} reps={FIXTURE[1]} base_seed={ds['base_seed']}"
        f.check(self.stdout["inspect"].startswith(f"LCD1 dataset: {header}"),
                "inspect does not report the file's header")

    def check_lcd1(self, blob: bytes, size: tuple) -> dict:
        """Layout, header and content checks of one LCD1 file; returns it decoded."""
        f = self.fail
        groups, reps = size
        f.check(len(blob) == formats.lcd1_size(L, groups, reps), "LCD1 length != layout size")
        ds = formats.read_lcd1(blob)
        f.check((ds["magic"], ds["L"], ds["n_params"], ds["groups"], ds["reps"], ds["base_seed"])
                == (b"LCD1", L, 8, groups, reps, self.seeds["oracle.base_seed"]),
                "LCD1 header does not match the config")
        f.check(bool(np.all((ds["params"] >= PARAMS_MARGIN - 1e-6)
                            & (ds["params"] <= 1 - PARAMS_MARGIN + 1e-6))),
                "dataset params outside the configured margin")
        runs = ds["alpha"].reshape(-1, CODE_RUN_LENGTH)
        f.check(bool(np.all(runs == runs[:, :1])) and 0 < ds["alpha"].sum() < L,
                "transmitted code is not made of whole pulse runs")
        return ds

    def check_train(self) -> None:
        f, p, wl = self.fail, self.p, self.wl
        header, rows = formats.read_csv(Path(f"{p['model.lck']}.losses.csv").read_text())
        f.check(rows.shape[0] == wl.train_iters, "loss log rows != iterations")
        f.check(bool(np.all(np.isfinite(rows))), "loss log holds a non-finite value")
        it = rows[:, header.index("iteration")]
        f.check(np.array_equal(it, np.arange(wl.train_iters)), "loss log iterations out of order")
        want = np.where(it <= wl.threshold, 0.0, np.minimum(1.0, it / CURRICULUM_CONSTANT))
        f.check(np.allclose(rows[:, header.index("alpha")], want, rtol=1e-5, atol=0),
                "curriculum alpha does not follow the schedule")
        ck = formats.read_lck1(p["model.lck"].read_bytes())
        init = formats.read_lck1(p["init.lck"].read_bytes())
        f.check(ck["digest"] == hashlib.sha256(p["train.lcd"].read_bytes()).digest(),
                "checkpoint digest != SHA-256 of its dataset")
        f.check(ck["arch"]["L"] == L and ck["meta"]["iteration"] == wl.train_iters,
                "checkpoint architecture or iteration count is wrong")
        gen = [k for k in ck["blocks"] if k.startswith("g.")]
        f.check(bool(gen) and all(np.all(np.isfinite(ck["blocks"][k])) for k in gen),
                "generator weights are not finite")
        f.check(any(not np.array_equal(ck["blocks"][k], init["blocks"][k]) for k in gen),
                "generator weights did not move from their initial values")

    def check_calibrate(self) -> None:
        f, p, wl = self.fail, self.p, self.wl
        rec = formats.read_params_record(p["params.txt"].read_text())
        params = np.array([float(rec[f"p{i}"]) for i in range(8)])
        f.check(bool(np.all((params > 0) & (params < 1))), "optimized params not inside (0, 1)")
        f.check(rec["converged"] == "false" and int(rec["iterations"]) == wl.opt_iters,
                "optimize did not run its configured iterations")
        _, trace = formats.read_csv(Path(f"{p['params.txt']}.trace.csv").read_text())
        f.check(trace.shape[0] == wl.opt_iters and bool(np.all(np.isfinite(trace))),
                "optimize trace rows != iterations, or not finite")
        for name in ("result.csv", "pstar.csv"):
            rep = formats.read_eval_report(p[name].read_text())
            f.check(all(h.sum() == EVAL_N for h in rep["hist"].values()) and len(rep["hist"]) == 2,
                    f"{name}: histograms do not count n codes each")
        r, med, _ = formats.read_eval_report(p["pstar.csv"].read_text())["summary"]["after"]
        f.check(r >= P_STAR_MIN_R, f"eval at p_star: R = {r} < {P_STAR_MIN_R}")
        f.check(abs(med - DISTANCE_MM) <= DELTA_IN_MM,
                f"eval at p_star: median {med} off the scene")
        self.r_star = r

    def check_corner(self) -> None:
        """Eval at a box corner must read a lower R than at p_star (run once)."""
        if not self.first:
            return  # no round was checked, so there is no p_star figure
        ok, _, _ = self.s.call("eval", ["eval", "--config", self.p["round.cfg"], "--params",
                                        self.p["corner.txt"], "--out", self.p["corner.csv"]],
                               counted=False)
        self.fail.check(ok, "eval at the corner failed")
        if ok:
            r = formats.read_eval_report(self.p["corner.csv"].read_text())["summary"]["after"][0]
            self.fail.check(r < self.r_star, f"eval at the corner R = {r} is not below p_star's")


def median(values) -> float:
    return float(statistics.median(values))


def import_program():
    """Import lidarcal from this checkout's src/, or exit without a result."""
    if not (SRC / "lidarcal" / "cli.py").is_file():
        sys.exit(f"stagebench: no program source at {SRC}/lidarcal; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from lidarcal import cli
    if Path(cli.__file__).resolve().parent != (SRC / "lidarcal").resolve():
        sys.exit(f"stagebench: imported lidarcal from {cli.__file__}, not from {SRC}")
    return cli


def declared_metrics(key: str) -> list | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [m["name"] for m in json.loads(path.read_text())[key]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = import_program()

    work = ROOT / ".stagebench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work, cli)
    setup_times = bench.setup()

    tracer = tracing.Tracer() if args.trace else None
    rounds, round_seconds = [], {False: [], True: []}
    t_start, last = time.perf_counter(), None
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        d = bench.fresh_dir(f"round{len(rounds)}", bench.ROUND_FILES)
        if traced:
            bench.s.tracer = tracer
            tracer.install()
        try:
            r = bench.round()
        finally:
            if traced:
                tracer.uninstall()
                bench.s.tracer = None
        bench.checked(bench.check_round)
        if not rounds:
            # later rounds only add allocator fragmentation from repeating the
            # commands in one process, which a user's separate runs never see
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if last:
            shutil.rmtree(last)
        rounds.append(r)
        last = d
        round_seconds[traced].append(sum(r["seconds"].values()))
        done = time.perf_counter() - t_start >= args.seconds
        if done and (not tracer or traced):
            break
    bench.checked(bench.check_corner)
    bench.fail.extend(f"operation failed: {u}" for u in bench.s.unexpected)

    if tracer:
        n_traced = len(round_seconds[True])
        overhead = 100.0 * (median(round_seconds[True]) / median(round_seconds[False]) - 1.0)
        values = tracer.metrics(n_traced, {"train": bench.wl.train_iters,
                                           "optimize": bench.wl.opt_iters}, overhead)
        units = tracing.per_layer_units()
        tracer.write_spans(ROOT / ".stagebench" / f"spans-{args.workload}-{args.seed}.csv.gz")
        declared = declared_metrics("per_layer")
    else:
        values = {k: median([r[k] for r in rounds]) for k in rounds[0] if k != "seconds"}
        values["setup_s"] = median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
        declared = declared_metrics("end_to_end")
    if declared is not None and sorted(declared) != sorted(units):
        bench.fail.append("reported metric names differ from BENCHMARK.json")

    for msg in bench.fail:
        print(f"stagebench: check failed: {msg}", file=sys.stderr)
    print(f"stagebench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{bench.s.attempted} operations, {bench.s.failed} failed", file=sys.stderr)
    if not bench.fail:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not bench.fail,
        "attempted": bench.s.attempted,
        "failed": bench.s.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
