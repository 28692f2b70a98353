"""Micro-benchmark + perf-regression harness for the hot-path kernels.

Times the library's hot paths — matching, contraction, engine payload
delivery, one embed smoothing iteration and the β field at the
production lattice side — on generated graphs, reports per-kernel
medians, and persists them (plus the old-vs-new speedup ratios the
optimisation work is accountable for) to ``BENCH_kernels.json``.

Two ways to run it:

* **Record**: ``python benchmarks/bench_micro_kernels.py`` times every
  kernel on a ~100k-vertex grid graph and writes the JSON (default:
  repo-root ``BENCH_kernels.json`` — the committed baseline).
* **Check**: ``python benchmarks/bench_micro_kernels.py --check
  BENCH_kernels.json`` re-times and *fails loudly* (exit 1) when any
  kernel regressed by more than ``--threshold`` (default 1.5×) against
  the baseline medians.

``--quick`` shrinks the graphs so CI can exercise the record/check path
in seconds (its timings are noise — pair it with a huge ``--threshold``
when checking, as the CI smoke job does).

``--scale 1m`` adds a million-vertex tier (``embed/smooth-iter-1m``,
``embed/bh-build-1m``, ``io/read-metis-1m`` on grid 1024×1024) on top of
the 100k rows.  The committed baseline is recorded at the default 100k
scale, so ``--check`` ignores the 1m rows until a 1m baseline is
recorded; the ``bench-1m`` manual-dispatch CI job runs this tier.

Unlike the table/figure benches (single-shot regenerations) this is a
plain script, importable without pytest: the numbers to watch when
optimising kernels, wired to fail the build when they rot.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coarsen import (  # noqa: E402
    contract,
    heavy_edge_matching,
    heavy_edge_matching_vec,
    validate_matching,
)
from repro.embed.box import Box  # noqa: E402
from repro.embed.fdl import force_directed_layout, random_positions  # noqa: E402
from repro.embed.lattice import (  # noqa: E402
    LatticeWorkspace,
    beta_force_field,
    lattice_stats,
    repulsive_forces_lattice,
)
from repro.embed.multilevel import lattice_side_for  # noqa: E402
from repro.embed.quadtree import BHWorkspace, repulsive_forces_bh  # noqa: E402
from repro.geometric.kway import kway_geometric_assign  # noqa: E402
from repro.graph.generators import grid2d  # noqa: E402
from repro.graph.io import read_metis  # noqa: E402
from repro.parallel import ZERO_COST, procs_available, run_spmd  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"
SCHEMA = 1

#: kernels whose medians participate in the regression check
TIMED_KERNELS = (
    "matching/hem",
    "matching/hem-vec",
    "matching/validate",
    "coarsen/contract",
    "kway/geom-assign",
    "csr/dedupe-merge",
    "engine/delivery-defensive",
    "engine/delivery-readonly",
    "engine/reduce-array",
    "engine/procs-roundtrip",
    "embed/dist-accumulate",
    "embed/smooth-iter",
    "embed/beta-field",
    "embed/bh-build",
    "io/read-metis",
)

#: extra rows recorded only with ``--scale 1m`` (no committed baseline)
SCALE_1M_KERNELS = (
    "embed/smooth-iter-1m",
    "embed/bh-build-1m",
    "io/read-metis-1m",
)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _delivery_program(payload_len: int, rounds: int):
    """Rank program: ring sendrecv of an array payload, ``rounds`` times.

    With ``copy_mode="defensive"`` every delivery deep-copies the array;
    with ``"readonly"`` the same program moves read-only views — the
    difference is pure payload-copy cost.
    """

    def prog(comm):
        arr = np.full(payload_len, float(comm.rank))
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        acc = 0.0
        for _ in range(rounds):
            got = yield from comm.sendrecv(arr, dest=right, source=left)
            acc += float(got[0])
        return acc

    return prog


def _reduce_program(payload_len: int, rounds: int):
    def prog(comm):
        arr = np.full(payload_len, float(comm.rank))
        total = 0.0
        for _ in range(rounds):
            red = yield from comm.allreduce(arr, op="sum")
            total += float(red[0])
        return total

    return prog


def write_metis_fast(g, path: Path) -> None:
    """Unweighted METIS writer vectorised enough for 1M-vertex graphs
    (``write_metis`` string-formats per edge in Python; fine at 100k,
    minutes at 1M)."""
    idx1 = (g.indices + 1).tolist()
    indptr = g.indptr
    with open(path, "w") as fh:
        fh.write(f"{g.num_vertices} {g.num_edges}\n")
        fh.writelines(
            " ".join(map(str, idx1[indptr[v]:indptr[v + 1]])) + "\n"
            for v in range(g.num_vertices)
        )


def run_benchmarks(quick: bool = False, repeats: int = 5,
                   scale: str = "100k") -> dict:
    """Time every kernel; returns the result document (JSON-ready)."""
    side = 32 if quick else 320  # 1k / 102k vertices
    mesh = grid2d(side, side)
    g = mesh.graph
    results: dict = {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "scale": scale,
        "graph": {"kind": f"grid2d({side}x{side})", "n": g.num_vertices,
                  "m": g.num_edges},
        "kernels": {},
    }

    def record(name: str, fn) -> float:
        med = _median_time(fn, repeats)
        results["kernels"][name] = {"median_s": med}
        print(f"  {name:<28s} {med * 1e3:10.2f} ms")
        return med

    print(f"kernel micro-benchmarks on {results['graph']['kind']} "
          f"(n={g.num_vertices}, m={g.num_edges}), median of {repeats}")

    # ---- matching -----------------------------------------------------
    t_hem = record("matching/hem", lambda: heavy_edge_matching(g, seed=7))
    t_vec = record("matching/hem-vec",
                   lambda: heavy_edge_matching_vec(g, seed=7))
    match = heavy_edge_matching_vec(g, seed=7)
    record("matching/validate", lambda: validate_matching(g, match))

    # ---- contraction --------------------------------------------------
    record("coarsen/contract", lambda: contract(g, match))

    # ---- direct k-way geometric assignment ----------------------------
    # balanced spherical K-means on the mesh coordinates (K = 8 cells);
    # the assignment half of the kway-geometric partition stage
    record("kway/geom-assign",
           lambda: kway_geometric_assign(g, mesh.coords, 8, seed=7))

    # ---- scatter micro-checks (the np.add.at -> bincount satellites) --
    # Same shapes as the two replaced call sites: csr.py's duplicate-
    # edge weight merge (1-D) and parallel.py's distributed attractive
    # accumulation (per-column 2-D).  The *-addat rows are the "before"
    # side of the micro-check; the speedup lines below report the ratio.
    rng = np.random.default_rng(5)
    n_grp = g.num_vertices
    sc_idx = np.sort(rng.integers(0, n_grp, size=4 * n_grp))
    sc_w = rng.random(sc_idx.size)
    sc_f = rng.random((sc_idx.size, 2))

    def merge_addat():
        out = np.zeros(n_grp)
        np.add.at(out, sc_idx, sc_w)
        return out

    def merge_bincount():
        return np.bincount(sc_idx, weights=sc_w, minlength=n_grp)

    t_ma = record("csr/dedupe-merge-addat", merge_addat)
    t_mb = record("csr/dedupe-merge", merge_bincount)
    assert np.array_equal(merge_addat(), merge_bincount())

    def accum_addat():
        out = np.zeros((n_grp, 2))
        np.add.at(out, sc_idx, sc_f)
        return out

    def accum_bincount():
        out = np.empty((n_grp, 2))
        out[:, 0] = np.bincount(sc_idx, weights=sc_f[:, 0], minlength=n_grp)
        out[:, 1] = np.bincount(sc_idx, weights=sc_f[:, 1], minlength=n_grp)
        return out

    t_aa = record("embed/dist-accumulate-addat", accum_addat)
    t_ab = record("embed/dist-accumulate", accum_bincount)
    assert np.array_equal(accum_addat(), accum_bincount())

    # ---- engine payload delivery -------------------------------------
    n_payload = 4_000 if quick else 1_000_000
    rounds = 4 if quick else 8
    prog = _delivery_program(n_payload, rounds)
    t_def = record(
        "engine/delivery-defensive",
        lambda: run_spmd(prog, 2, machine=ZERO_COST, copy_mode="defensive"),
    )
    t_ro = record(
        "engine/delivery-readonly",
        lambda: run_spmd(prog, 2, machine=ZERO_COST, copy_mode="readonly"),
    )
    rprog = _reduce_program(n_payload // 8, rounds)
    record("engine/reduce-array",
           lambda: run_spmd(rprog, 8, machine=ZERO_COST))
    if procs_available():
        # Same ring program on real worker processes: times fork + shm
        # delivery + teardown.  Deliberately small payload — each call
        # spawns two OS processes.
        pprog = _delivery_program(min(n_payload, 64_000), rounds)
        record(
            "engine/procs-roundtrip",
            lambda: run_spmd(pprog, 2, machine=ZERO_COST, backend="procs"),
        )
    else:
        print("  engine/procs-roundtrip       (procs backend unavailable, "
              "skipped)")

    # ---- one embed smoothing iteration --------------------------------
    # Workspace threaded exactly as multilevel_embedding does: one
    # LatticeWorkspace reused across iterations/levels.
    pos0 = random_positions(g.num_vertices, seed=3)
    box = Box.of_points(pos0).expanded(1.05)
    s = 4 if quick else 32
    lat_ws = LatticeWorkspace()

    def lattice_kernel(pos, masses, c, k):
        return repulsive_forces_lattice(pos, masses, c, k, box=box, s=s,
                                        workspace=lat_ws)

    record(
        "embed/smooth-iter",
        lambda: force_directed_layout(
            g, pos0, masses=g.vwgt, max_iters=1, step0=1.0,
            repulsion=lattice_kernel,
        ),
    )

    # ---- β field at the production lattice side ------------------------
    # multilevel_embedding smooths the finest level on a
    # lattice_side_for(n) lattice (s = 56 at 102k vertices); random
    # positions occupy every cell, so the empty-cell compaction does not
    # help and this is the kernel's dense worst case
    stats = lattice_stats(pos0, g.vwgt, box, lattice_side_for(g.num_vertices))
    record("embed/beta-field",
           lambda: beta_force_field(stats, workspace=lat_ws))

    # ---- Barnes-Hut evaluation (build + traversal) --------------------
    bh_ws = BHWorkspace()
    record(
        "embed/bh-build",
        lambda: repulsive_forces_bh(pos0, g.vwgt, workspace=bh_ws),
    )

    # ---- streaming METIS reader ---------------------------------------
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        gpath = Path(tmp) / "bench.graph"
        write_metis_fast(g, gpath)
        record("io/read-metis", lambda: read_metis(gpath))

        if scale == "1m":
            print("-- 1m tier (grid2d 1024x1024) --")
            rep_1m = max(1, min(repeats, 3))
            g1 = grid2d(1024, 1024).graph
            pos1 = random_positions(g1.num_vertices, seed=3)
            box1 = Box.of_points(pos1).expanded(1.05)
            ws1 = LatticeWorkspace()

            def lattice_kernel_1m(pos, masses, c, k):
                return repulsive_forces_lattice(pos, masses, c, k, box=box1,
                                                s=64, workspace=ws1)

            def smooth_1m():
                return force_directed_layout(
                    g1, pos1, masses=g1.vwgt, max_iters=1, step0=1.0,
                    repulsion=lattice_kernel_1m,
                )

            results["kernels"]["embed/smooth-iter-1m"] = {
                "median_s": _median_time(smooth_1m, rep_1m)}
            print(f"  {'embed/smooth-iter-1m':<28s} "
                  f"{results['kernels']['embed/smooth-iter-1m']['median_s'] * 1e3:10.2f} ms")
            bh_ws1 = BHWorkspace()
            results["kernels"]["embed/bh-build-1m"] = {
                "median_s": _median_time(
                    lambda: repulsive_forces_bh(pos1, g1.vwgt, workspace=bh_ws1),
                    rep_1m)}
            print(f"  {'embed/bh-build-1m':<28s} "
                  f"{results['kernels']['embed/bh-build-1m']['median_s'] * 1e3:10.2f} ms")
            gpath1 = Path(tmp) / "bench-1m.graph"
            write_metis_fast(g1, gpath1)
            results["kernels"]["io/read-metis-1m"] = {
                "median_s": _median_time(lambda: read_metis(gpath1), rep_1m)}
            print(f"  {'io/read-metis-1m':<28s} "
                  f"{results['kernels']['io/read-metis-1m']['median_s'] * 1e3:10.2f} ms")

    results["speedups"] = {
        "heavy_edge_matching": t_hem / t_vec if t_vec > 0 else float("inf"),
        "payload_delivery": t_def / t_ro if t_ro > 0 else float("inf"),
        "dedupe_merge": t_ma / t_mb if t_mb > 0 else float("inf"),
        "dist_accumulate": t_aa / t_ab if t_ab > 0 else float("inf"),
    }
    for name, ratio in results["speedups"].items():
        print(f"  speedup {name:<20s} {ratio:6.2f}x")
    return results


def check_regressions(current: dict, baseline: dict, threshold: float) -> list:
    """Compare per-kernel medians; returns a list of failure strings."""
    failures = []
    base_kernels = baseline.get("kernels", {})
    for name, entry in current["kernels"].items():
        base = base_kernels.get(name)
        if base is None:
            print(f"  {name:<28s} (no baseline entry, skipped)")
            continue
        ratio = entry["median_s"] / max(base["median_s"], 1e-12)
        status = "ok" if ratio <= threshold else "REGRESSED"
        print(f"  {name:<28s} {ratio:6.2f}x vs baseline   {status}")
        if ratio > threshold:
            failures.append(
                f"{name}: {entry['median_s'] * 1e3:.2f} ms vs baseline "
                f"{base['median_s'] * 1e3:.2f} ms ({ratio:.2f}x > "
                f"{threshold:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="tiny graphs (CI smoke; timings are noise)")
    ap.add_argument("--scale", choices=("100k", "1m"), default="100k",
                    help="add the million-vertex tier rows with '1m' "
                         "(default: 100k rows only)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help=f"result JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--check", type=Path, metavar="BASELINE",
                    help="compare against a baseline JSON; exit 1 on "
                         ">threshold regressions")
    ap.add_argument("--threshold", type=float, default=1.5,
                    help="regression factor that fails --check "
                         "(default 1.5)")
    args = ap.parse_args(argv)

    results = run_benchmarks(quick=args.quick, repeats=args.repeats,
                             scale=args.scale)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        print(f"regression check vs {args.check} "
              f"(threshold {args.threshold:.2f}x)")
        failures = check_regressions(results, baseline, args.threshold)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
