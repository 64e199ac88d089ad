"""Self-test of the benchmark's checks: each one passes on real outputs and
rejects a deliberately wrong one.

    python3 perfbench/selftest.py

Runs dynamics (one run per ensemble) and analytics once, checks their real
outputs, then makes one wrong output per check (a corrupted CSV byte, a
flipped outcome, a shifted root, a flipped verdict, ...) and requires the
check to fail on it. The sigma-grid checks get hand-made grid results, since
a real grid takes seconds per level. Exits 1 if any case goes the wrong way.
"""

import copy
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
from cyberdyn import thresholds  # noqa: E402
from workloads import SIGMA_GRIDS, SIGMA_RUNS, Analytics, Dynamics, SigmaGrid  # noqa: E402

failures = []


def expect(label, check, should_pass):
    try:
        check()
        outcome = "passed"
    except C.CheckFailure as exc:
        outcome = f"rejected ({exc})"
    ok = outcome == "passed" if should_pass else outcome != "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {outcome}")
    if not ok:
        failures.append(label)


# ---------------------------------------------------------------------------
# dynamics: mutate files of a real run, re-sealing the manifest so that only
# the targeted check can trip


def rewrite(out_dir: Path, name: str, edit, reseal=True):
    path = out_dir / name
    original = path.read_bytes()
    path.write_bytes(edit(original))
    manifest_path = out_dir / "manifest.json"
    manifest_text = manifest_path.read_text()
    if reseal:
        manifest = json.loads(manifest_text)
        manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
    return lambda: (path.write_bytes(original), manifest_path.write_text(manifest_text))


def edit_csv(column, row, change):
    def edit(data):
        lines = data.decode().split("\n")
        header = lines[0].split(",")
        cells = lines[row].split(",")
        j = header.index(column)
        cells[j] = change(cells[j])
        lines[row] = ",".join(cells)
        return "\n".join(lines).encode()

    return edit


def test_dynamics(out_root):
    wl = Dynamics(seed=7, workers=1, out_root=out_root)
    wl.setup()
    for spec in wl.specs.values():
        spec.runs = 1
    for op in wl.ops():
        op.fn()
    expect("dynamics: real outputs", wl.check, True)
    d = wl.last_dir

    def flip_byte(data):
        return data[:40] + bytes([data[40] ^ 1]) + data[41:]

    cases = [
        ("corrupted CSV byte", "fig4", "er_0p2_meanfield.csv", flip_byte, False),
        ("outcome on the wrong side", "fig4", "summary.csv",
         edit_csv("final_mean_xi", 2, lambda v: "0.9"), True),
        ("fig5b outcome on the wrong side", "fig5b", "summary.csv",
         edit_csv("final_mean_blue", 1, lambda v: "0.2"), True),
        ("mean-field value above 1", "fig6_type2", "powerlaw_0p6_meanfield.csv",
         edit_csv("max_B", 5, lambda v: "1.5"), True),
        ("mean-field step off by 1e-7", "fig5b", "powerlaw_0p55_meanfield.csv",
         edit_csv("mean_blue", 50, lambda v: repr(float(v) + 1e-7)), True),
        ("ensemble mean one ulp off", "fig4", "er_0p4_ensemble.csv",
         edit_csv("mean_xi", 3, lambda v: repr(float(np.nextafter(float(v), 2.0)))), True),
        ("absorption count off by one", "fig4", "er_0p4_ensemble.csv",
         edit_csv("n_absorbed_blue", -2, lambda v: str(int(v) + 1)), True),
    ]
    for label, spec, name, edit, reseal in cases:
        restore = rewrite(d / spec, name, edit, reseal)
        expect(f"dynamics: {label}", wl.check, False)
        restore()
    wl.manifests.append(("fig4", {"summary.csv": "0" * 64}))
    expect("dynamics: outputs differ between rounds", wl.check, False)
    wl.manifests.pop()
    expect("dynamics: restored outputs", wl.check, True)

    series, absorbed, step = C.markov_run(
        np.array([0, 1, 2]), np.array([1, 0]), C.hard_threshold(0.5), [1.0, 0.0], 1.0, 0.1, 3
    )
    expect("stepper: identical run", lambda: C.check_run_bits(series, absorbed, (series, absorbed, step), "run"), True)
    expect("stepper: other absorbing colour",
           lambda: C.check_run_bits(series, "blue" if absorbed != "blue" else "red", (series, absorbed, step), "run"), False)


# ---------------------------------------------------------------------------
# sigma-grid: hand-made estimates on the real level grids


def estimate(levels, verdicts):
    counts = [{"all_blue": (SIGMA_RUNS, 0, 0), "all_red": (0, SIGMA_RUNS, 0),
               "mixed": (SIGMA_RUNS // 2, SIGMA_RUNS - SIGMA_RUNS // 2, 0)}[v] for v in verdicts]
    a1 = next(lv for lv, v in zip(levels, verdicts) if v == "all_blue")
    b1 = next(lv for lv, v in zip(levels[::-1], verdicts[::-1]) if v == "all_red")
    return thresholds.SigmaMarkovEstimate(
        levels=np.asarray(levels), verdicts=list(verdicts), counts=counts, a1=a1, b1=b1,
        sigma_markov=0.5 * (a1 + b1), inconclusive=False, init_rule="uniform")


def test_sigma_grid():
    wl = SigmaGrid(seed=0, workers=1, out_root=None)
    wl.setup()
    name, levels = SIGMA_GRIDS[0][0], list(SIGMA_GRIDS[0][4])
    good = ["all_red", "mixed"] + ["all_blue"] * (len(levels) - 2)
    wl.results = {n: estimate(list(lv), good) for n, _, _, _, lv, _ in SIGMA_GRIDS}
    expect("sigma-grid: consistent grids", wl.check, True)
    saved = wl.results[name]

    def with_result(label, est):
        wl.results[name] = est
        expect(f"sigma-grid: {label}", wl.check, False)
        wl.results[name] = saved

    def changed(**fields):
        est = copy.copy(saved)
        for k, v in fields.items():
            object.__setattr__(est, k, v)
        return est

    with_result("flipped verdict", estimate(levels, ["all_red", "mixed", "all_red"] + good[3:]))
    with_result("verdict not implied by counts", changed(verdicts=["all_red", "all_blue"] + good[2:]))
    with_result("counts not summing to runs", changed(counts=[(0, SIGMA_RUNS - 1, 0)] + saved.counts[1:]))
    with_result("sigma_markov shifted", changed(sigma_markov=saved.sigma_markov + 0.02))
    with_result("estimate far from the drift root", estimate([lv + 0.15 for lv in levels], good))
    root = C.drift_root(40, 0.3)
    expect("drift root below sigma=0.3", lambda: C.check_drift_side(root, 0.3, "root"), True)
    expect("drift root shifted above sigma=0.3", lambda: C.check_drift_side(root + 0.06, 0.3, "root"), False)


# ---------------------------------------------------------------------------
# analytics: mutate the results of a real round


def test_analytics():
    wl = Analytics(seed=7, workers=1, out_root=None)
    wl.setup()
    for op in wl.ops():
        op.fn()
    expect("analytics: real outputs", wl.check, True)
    good = wl.results

    def with_result(label, mutate):
        wl.results = copy.deepcopy(good)
        mutate(wl.results)
        expect(f"analytics: {label}", wl.check, False)
        wl.results = good

    def shift_root(r):
        r["roots"][(10, 0.3)] += 1e-8

    def half_root(r):
        r["roots"][(16, 0.5)] = 0.5 + 1e-6

    def drop_root(r):
        r["roots"][(25, 0.7)] = None

    def asymmetric(r):
        g = r["er10k"]
        object.__setattr__(g, "indices", np.concatenate([g.indices[:-1], [(g.indices[-1] + 1) % g.n]]))

    def isolated(r):
        g = r["cl10k"]
        ptr = g.indptr.copy()
        ptr[1] = ptr[0]
        object.__setattr__(g, "indptr", ptr)

    def shifted_boundary(r):
        b, ends = r["pl2000"]
        r["pl2000"] = (b - 0.05, ends)

    def swapped_ends(r):
        b, ends = r["er2000"]
        r["er2000"] = (b, ends[::-1])

    def diag_row(r):
        r["diag"].s2[0] *= 1 + 1e-6

    def rate(r):
        rate, verdicts = r["type3"]
        r["type3"] = (rate + 0.01, verdicts)

    def verdict(r):
        rate, verdicts = r["type4"]
        verdicts[1.0], verdicts[0.0] = verdicts[0.0], verdicts[1.0]

    for label, mutate in (
        ("critical_nu root shifted by 1e-8", shift_root),
        ("critical_nu off 1/2 at sigma=1/2", half_root),
        ("critical_nu root missing", drop_root),
        ("asymmetric adjacency", asymmetric),
        ("isolated node", isolated),
        ("boundary moved by 0.05", shifted_boundary),
        ("bracket ends swapped", swapped_ends),
        ("diagnostics row off by 1e-6", diag_row),
        ("convergence rate off by 0.01", rate),
        ("equilibrium verdicts swapped", verdict),
    ):
        with_result(label, mutate)
    expect("ER edge count far from n(n-1)p/2",
           lambda: C.check_er_edges(10_000, 0.002, len(good["er10k"].indices) // 2 + 5000, "er10k"), False)


def main() -> int:
    out_root = HERE / "_out" / f"selftest-{os.getpid()}"
    try:
        test_dynamics(out_root)
        test_sigma_grid()
        test_analytics()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(f"{len(failures)} case(s) went the wrong way" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
