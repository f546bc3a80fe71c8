"""Output gate: stored reference outputs plus an independent oracle.

Every run is checked twice:

* against the reference outputs stored under ``reference/`` when the seed
  is one of ``REFERENCE_SEEDS`` (the default seed 7 and the held-out seed
  11, generated with ``make_reference.py``), field by field;
* against an oracle for any seed: a separately written DWT, keep-M cut and
  PRD (polyphase slices instead of the package's modular gathers, a
  lexsort instead of a stable argsort), and scipy's paired t and exact
  Wilcoxon tests behind an independently computed Lilliefors gate.  The
  oracle recomputes a seeded sample of each output.

Tolerances.  Unformatted floats (PRD in percent, dPRD, p-values) may
differ by ``FLOAT_TOL`` absolute, because a faster kernel may sum in
another order (drift of about 1e-14).  A number printed with ``d``
decimals may differ by ``1.5 * 10**-d``: one unit in its last digit, plus
half a unit when the other side is an unrounded oracle value.  Test names,
significance flags, kept counts, detection counts, files and command exit
codes must match exactly.  A plane argmin may move to another node whose
PRD is within ``FLOAT_TOL`` of the reference minimum: that is counted as a
near-tie flip, not as a failure.

Each check belongs to a unit (a CLI command, a table row, a sweep point, a
scanned trace); a unit with any failed check counts once toward
``failed``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats as sps
from scipy.special import ndtr

import workloads as wl

FLOAT_TOL = 1e-9
REFERENCE_SEEDS = (7, 11)  # the README's default seed and one held-out seed
ALPHA = 0.05
SAMPLE_RATE_HZ = 10.0
# Auto depth of Daubechies-3 at 10 Hz, from the reference depth table (6/7/7).
DB3_DEPTH_10HZ = 7
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="ascii"))


def units(workload):
    """The output units of one pass; each fails or passes as a whole."""
    if workload == "walkthrough":
        return [f"walkthrough.{name}" for name, _ in wl.walkthrough_commands(0, "")]
    if workload == "sweep":
        return ([f"sweep.row{i}" for i in range(wl.SWEEP_CHANNELS)]
                + [f"sweep.point{i}" for i in range(len(wl.CRS) * wl.SWEEP_PAIRS)])
    return [f"scan.trace{t}" for t in range(wl.SCAN_SUBJECTS * wl.SCAN_CHANNELS)] + ["scan.aggregate"]


class Verdict:
    """Failed checks grouped by unit, plus near-tie flips."""

    def __init__(self):
        self.units = {}
        self.flips = []

    def unit(self, name):
        self.units.setdefault(name, [])

    def fail(self, name, message):
        self.units.setdefault(name, []).append(message)

    def check(self, name, ok, message):
        self.unit(name)
        if not ok:
            self.fail(name, message)

    @property
    def attempted(self):
        return len(self.units)

    @property
    def failures(self):
        return {u: msgs for u, msgs in self.units.items() if msgs}


# ---------------------------------------------------------------------------
# Oracle


class Oracle:
    """Reference computations written independently of the package."""

    def __init__(self):
        from eggwave.stats import LILLIEFORS_MC_DRAWS, LILLIEFORS_MC_SEED
        from eggwave.wavelets import named_wavelet, pollen_filter

        self._named = named_wavelet
        self._pollen = pollen_filter
        self._draws, self._mc_seed = LILLIEFORS_MC_DRAWS, LILLIEFORS_MC_SEED
        self._null = {}

    def filters(self, wavelet):
        pair = self._named(wavelet) if isinstance(wavelet, str) else self._pollen(*wavelet)
        return np.array(pair.h), np.array(pair.g)

    @staticmethod
    def _analysis(v, h, g):
        if v.size % 2:
            v = np.append(v, v[-1])
        windows = sliding_window_view(np.resize(v, v.size + h.size - 1), h.size)[::2]
        return windows @ h, windows @ g

    @staticmethod
    def _synthesis(a, d, h, g, out_len):
        n = 2 * a.size
        idx = (2 * np.arange(a.size)[:, None] + np.arange(h.size)[None, :]) % n
        contrib = np.outer(a, h) + np.outer(d, g)
        return np.bincount(idx.ravel(), weights=contrib.ravel(), minlength=n)[:out_len]

    def compress(self, x, wavelet, levels, cr):
        """``(prd_percent, kept, total)`` of keep-M compression."""
        x = np.asarray(x, dtype=np.float64)
        h, g = self.filters(wavelet)
        approx, details, lengths = x, [], []
        for _ in range(levels):
            lengths.append(approx.size)
            approx, d = self._analysis(approx, h, g)
            details.append(d)
        flat = np.concatenate([approx] + details[::-1])
        total = flat.size
        kept = max(1, int(total // cr))
        order = np.lexsort((np.arange(total), -np.abs(flat)))
        cut = np.zeros(total)
        cut[order[:kept]] = flat[order[:kept]]
        rec, pos = cut[: approx.size], approx.size
        for d, n_true in zip(details[::-1], lengths[::-1]):
            rec = self._synthesis(rec, cut[pos : pos + d.size], h, g, n_true)
            pos += d.size
        diff = x - rec
        return 100.0 * math.sqrt(float(diff @ diff) / float(x @ x)), kept, total

    def named_prd(self, x, cr):
        return self.compress(x, "daubechies-3", DB3_DEPTH_10HZ, cr)[0]

    def _null_table(self, n):
        if n not in self._null:
            rng = np.random.default_rng((self._mc_seed, n))
            draws = rng.standard_normal((self._draws, n))
            z = (draws - draws.mean(axis=1, keepdims=True)) / draws.std(axis=1, ddof=1, keepdims=True)
            cdf = ndtr(np.sort(z, axis=1))
            i = np.arange(1, n + 1)
            stat = np.maximum((i / n - cdf).max(axis=1), (cdf - (i - 1) / n).max(axis=1))
            self._null[n] = np.sort(stat)
        return self._null[n]

    def compare(self, prds_a, prds_b):
        """``(test, mean, sd, significant, p, ambiguous)`` for one channel."""
        d = np.asarray(prds_b) - np.asarray(prds_a)
        sd = d.std(ddof=1)
        stat = sps.kstest((d - d.mean()) / sd, "norm").statistic
        table = self._null_table(d.size)
        gate_p = (table.size - np.searchsorted(table, stat, side="left") + 1) / (table.size + 1)
        ambiguous = bool(np.any(np.abs(table - stat) < 1e-12))
        if gate_p >= ALPHA:
            test, p = "paired-t", float(sps.ttest_rel(prds_b, prds_a).pvalue)
        else:
            test, p = "wilcoxon", float(sps.wilcoxon(d, method="exact").pvalue)
        ambiguous = ambiguous or abs(p - ALPHA) < FLOAT_TOL
        return test, float(d.mean()), float(sd), p < ALPHA, p, ambiguous


def _sample(rng, n, k):
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


def _state_prds(oracle, cohort, state, cr):
    """Per-channel oracle PRDs, subjects in sorted order."""
    out = {}
    for subject in cohort.subjects:
        rec = cohort.get(subject, state)
        for ch in rec.channel_ids:
            out.setdefault(ch, []).append(oracle.named_prd(rec.channel(ch), cr))
    return out


def _row_checks(verdict, unit, got, want, formatted):
    """Compare a comparison row ``[ch, test, mean, sd, sig, p]`` with an oracle row."""
    test, mean, sd, sig, p, ambiguous = want
    tol = 1.5e-6 if formatted else FLOAT_TOL
    got_test = {"Student": "paired-t", "Wilcoxon": "wilcoxon"}.get(got[1], got[1])
    got_sig = got[4] in (True, "Yes")
    if not ambiguous:
        verdict.check(unit, got_test == test, f"routed {got_test}, oracle routes {test}")
        verdict.check(unit, got_sig == sig, f"significant={got_sig}, oracle {sig}")
    for label, g, w in (("dPRD mean", got[2], mean), ("dPRD SD", got[3], sd), ("p", got[5], p)):
        if label == "p" and ambiguous:
            continue
        verdict.check(unit, abs(float(g) - w) <= tol, f"{label} {g} vs oracle {w:.12g}")


# ---------------------------------------------------------------------------
# Field comparisons against stored references


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _decimals(token):
    mantissa = token.split("e")[0].split("E")[0]
    return len(mantissa.split(".")[1]) if "." in mantissa else 0


def formatted_close(got: str, want: str) -> bool:
    """Equal text, except decimal numbers may differ by 1.5 units in their last digit."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    if got_parts != want_parts or len(got_nums) != len(want_nums):
        return False
    for g, w in zip(got_nums, want_nums):
        d = _decimals(w)
        if d == 0 or len(w.replace("-", "").replace(".", "").lstrip("0")) >= 15:
            # integers are counts; 17-digit values are compared by FLOAT_TOL
            if d == 0 and g != w:
                return False
            if d and abs(float(g) - float(w)) > FLOAT_TOL:
                return False
        elif abs(float(g) - float(w)) > 1.5 * 10.0 ** -d:
            return False
    return True


def _compare_lines(verdict, unit, label, got_text, want_text):
    got_lines, want_lines = got_text.splitlines(), want_text.splitlines()
    verdict.check(unit, len(got_lines) == len(want_lines),
                  f"{label}: {len(got_lines)} lines, reference {len(want_lines)}")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if not formatted_close(g, w):
            verdict.fail(unit, f"{label} line {i + 1}: {g!r} vs reference {w!r}")
            return


def _argmin_matches(verdict, unit, got, want, near=None):
    """Compare ``(a, b, prd)`` minima; returns False when a near-tie flip was recorded."""
    (ga, gb, gp), (wa, wb, wp) = got, want
    if (ga, gb) == (wa, wb):
        verdict.check(unit, abs(gp - wp) <= FLOAT_TOL, f"minimum PRD {gp!r} vs reference {wp!r}")
        return True
    ref_here = None if near is None else near.get(f"{ga!r},{gb!r}")
    if abs(gp - wp) <= FLOAT_TOL and (ref_here is None or abs(ref_here - wp) <= FLOAT_TOL):
        verdict.unit(unit)
        verdict.flips.append(f"{unit}: argmin ({wa!r}, {wb!r}) -> ({ga!r}, {gb!r}), "
                             f"PRD {wp!r} -> {gp!r}")
        return False
    verdict.fail(unit, f"argmin ({ga!r}, {gb!r}, {gp!r}) vs reference ({wa!r}, {wb!r}, {wp!r})")
    return False


def surface_digest(values, a_values, b_values):
    """Reference form of a surface: argmin, near-minimum nodes and a sample."""
    prd = np.asarray(values, dtype=np.float64)
    i = int(np.argmin(prd))
    cols = len(b_values)
    near = {}
    for j in np.flatnonzero(prd <= prd[i] * (1 + 1e-6)).tolist():
        near[f"{float(a_values[j // cols])!r},{float(b_values[j % cols])!r}"] = float(prd[j])
    sample = {str(j): float(prd[j]) for j in range(0, prd.size, 61)}
    return {"argmin": [float(a_values[i // cols]), float(b_values[i % cols]), float(prd[i])],
            "near": near, "sample": sample, "size": int(prd.size)}


def _compare_surface(verdict, unit, values, a_values, b_values, want):
    prd = np.asarray(values, dtype=np.float64)
    verdict.check(unit, prd.size == want["size"], f"surface has {prd.size} nodes")
    if prd.size != want["size"]:
        return True
    for j, w in want["sample"].items():
        if abs(prd[int(j)] - w) > FLOAT_TOL:
            verdict.fail(unit, f"surface node {j}: {prd[int(j)]!r} vs reference {w!r}")
            break
    i = int(np.argmin(prd))
    cols = len(b_values)
    got = (float(a_values[i // cols]), float(b_values[i % cols]), float(prd[i]))
    return _argmin_matches(verdict, unit, got, tuple(want["argmin"]), want["near"])


# ---------------------------------------------------------------------------
# sweep


def check_sweep(verdict, outputs, seed, reference, oracle, cohort):
    rows, points = outputs["rows"], outputs["points"]
    verdict.check("sweep.rows", len(rows) == wl.SWEEP_CHANNELS, f"{len(rows)} table rows")
    verdict.check("sweep.points", len(points) == len(wl.CRS) * wl.SWEEP_PAIRS,
                  f"{len(points)} sweep points")
    if verdict.failures:
        return
    if reference is not None:
        for i, (got, want) in enumerate(zip(rows, reference["rows"])):
            unit = f"sweep.row{i}"
            exact = [got[k] == want[k] for k in (0, 1, 4)]
            close = [abs(got[k] - want[k]) <= FLOAT_TOL for k in (2, 3, 5)]
            verdict.check(unit, all(exact) and all(close), f"row {got} vs reference {want}")
        for i, (got, want) in enumerate(zip(points, reference["points"])):
            verdict.check(f"sweep.point{i}", got == want, f"point {got} vs reference {want}")
    if oracle is None:
        return
    basal = _state_prds(oracle, cohort, "basal", 3.0)
    severe = _state_prds(oracle, cohort, "severe", 3.0)
    for i, got in enumerate(rows):
        ch = got[0]
        _row_checks(verdict, f"sweep.row{i}", got, oracle.compare(basal[ch], severe[ch]), False)
    rng = np.random.default_rng((seed, 1))
    k = int(rng.integers(len(wl.CRS)))
    cr = float(wl.CRS[k])
    prds = {s: _state_prds(oracle, cohort, s, cr) for s in ("basal", "mild", "severe")}
    for j, (state_a, state_b) in enumerate((("basal", "mild"), ("basal", "severe"))):
        results = [oracle.compare(prds[state_a][ch], prds[state_b][ch]) for ch in sorted(prds[state_a])]
        got = points[k * wl.SWEEP_PAIRS + j]
        unit = f"sweep.point{k * wl.SWEEP_PAIRS + j}"
        verdict.check(unit, got[:3] == [cr, state_a, state_b], f"point {got} is not ({cr}, {state_a}, {state_b})")
        if not any(r[5] for r in results):
            sig = sum(r[3] for r in results)
            verdict.check(unit, got[3] == sig and got[4] == len(results),
                          f"{got[3]}/{got[4]} significant, oracle {sig}/{len(results)}")


# ---------------------------------------------------------------------------
# scan


def _grid(resolution):
    return np.linspace(-math.pi, math.pi, resolution)


def _oracle_minima(prd, a_values, b_values):
    """Global argmin, then strict local minima ordered by (prd, a, b)."""
    rows, cols = prd.shape
    padded = np.pad(prd, 1, constant_values=np.inf)
    neighbours = np.stack([padded[1 + di : 1 + di + rows, 1 + dj : 1 + dj + cols]
                           for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)])
    local = np.all(prd < neighbours, axis=0)
    i = int(np.argmin(prd))
    first = (float(a_values[i // cols]), float(b_values[i % cols]), float(prd.flat[i]))
    others = [(float(a_values[r]), float(b_values[c]), float(prd[r, c]))
              for r, c in zip(*np.nonzero(local)) if (r * cols + c) != i]
    others.sort(key=lambda t: (t[2], t[0], t[1]))
    return [first] + others


def check_scan(verdict, outputs, seed, reference, oracle, cohort):
    grid = _grid(wl.SCAN_GRID)
    traces = wl.SCAN_SUBJECTS * wl.SCAN_CHANNELS
    minima, surfaces = outputs["minima"], outputs["surfaces"]
    verdict.check("scan.outputs", len(minima) == traces and len(surfaces) == traces,
                  f"{len(minima)} minima and {len(surfaces)} surfaces for {traces} traces")
    if len(minima) != traces or len(surfaces) != traces:
        return
    mean = [float(np.mean([m[2] for m in minima])), float(np.mean([m[3] for m in minima]))]
    verdict.check("scan.aggregate", np.allclose(outputs["aggregate"], mean, rtol=0, atol=1e-12),
                  f"aggregate {outputs['aggregate']} is not the mean of the minima {mean}")
    flipped = False
    for t in range(traces):
        unit = f"scan.trace{t}"
        prd = np.asarray(surfaces[t]).reshape(wl.SCAN_GRID, wl.SCAN_GRID)
        found = [tuple(x) for x in outputs["surface_minima"][t]]
        verdict.check(unit, found == _oracle_minima(prd, grid, grid),
                      "surface_minima disagrees with the strict-local-minimum definition")
        if reference is not None:
            want = reference["traces"][t]
            verdict.check(unit, minima[t][:2] == want["minimum"][:2],
                          f"trace {minima[t][:2]} vs reference {want['minimum'][:2]}")
            flipped |= not _compare_surface(verdict, unit, surfaces[t], grid, grid, want["surface"])
            flipped |= not _argmin_matches(verdict, unit, tuple(minima[t][2:]),
                                           tuple(want["minimum"][2:]), want["refined_near"])
            got_locals = sorted((a, b) for a, b, _ in found[1:])
            want_locals = sorted((a, b) for a, b, _ in want["surface_minima"][1:])
            verdict.check(unit, flipped or got_locals == want_locals,
                          f"{len(got_locals)} local minima vs reference {len(want_locals)}")
    if reference is not None and not flipped:
        verdict.check("scan.aggregate",
                      np.allclose(outputs["aggregate"], reference["aggregate"], rtol=0, atol=FLOAT_TOL),
                      f"aggregate {outputs['aggregate']} vs reference {reference['aggregate']}")
    if oracle is None:
        return
    rng = np.random.default_rng((seed, 2))
    t = int(rng.integers(traces))
    unit = f"scan.trace{t}"
    subject, channel = minima[t][0], minima[t][1]
    x = cohort.get(subject, "basal").channel(channel)
    prd = np.asarray(surfaces[t])
    for j in _sample(rng, prd.size, 12) + [int(np.argmin(prd))]:
        a, b = float(grid[j // wl.SCAN_GRID]), float(grid[j % wl.SCAN_GRID])
        want = oracle.compress(x, (a, b), wl.SCAN_DEPTH, wl.SCAN_CR)[0]
        verdict.check(unit, abs(prd[j] - want) <= FLOAT_TOL,
                      f"surface PRD at ({a!r}, {b!r}) {prd[j]!r}, oracle {want!r}")
    a_vals, b_vals, refined = outputs["refined"][t]
    j = int(np.argmin(prd))
    step = grid[1] - grid[0]
    for axis, centre, got in (("a", grid[j // wl.SCAN_GRID], a_vals), ("b", grid[j % wl.SCAN_GRID], b_vals)):
        want = np.linspace(max(-math.pi, centre - step), min(math.pi, centre + step), wl.SCAN_REFINE)
        verdict.check(unit, np.array_equal(got, want),
                      f"refine {axis} axis is not one cell around the grid argmin")
    values = np.array([oracle.compress(x, (a, b), wl.SCAN_DEPTH, wl.SCAN_CR)[0]
                       for a in a_vals for b in b_vals])
    verdict.check(unit, np.allclose(refined, values, rtol=0, atol=FLOAT_TOL),
                  "refined surface disagrees with the oracle")
    i = int(np.argmin(values))
    best = (float(a_vals[i // len(b_vals)]), float(b_vals[i % len(b_vals)]), float(values[i]))
    _argmin_matches(verdict, unit, tuple(minima[t][2:]), best)


# ---------------------------------------------------------------------------
# walkthrough


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()[1:]]


def check_walkthrough(verdict, run, seed, reference, oracle, cohort):
    """``run``: {"exit": {cmd: code}, "stdout": {cmd: text}, "files": {name: text},
    "work": output directory}."""
    files, stdout = run["files"], run["stdout"]
    for name, code in run["exit"].items():
        verdict.check(f"walkthrough.{name}", code == 0, f"exit code {code}")
    owner = {"prd.csv": "compress", "table.csv": "stats", "table.txt": "stats",
             "sweep.csv": "sweep", "surface.csv": "surface", "surface.pgm": "surface",
             "minima.csv": "match"}
    for name, cmd in owner.items():
        verdict.check(f"walkthrough.{cmd}", name in files, f"{name} was not written")
    if any(name not in files for name in owner):
        return
    surf_rows = [[float(v) for v in row] for row in _csv_rows(files["surface.csv"])]
    surf = np.asarray(surf_rows) if surf_rows else np.zeros((0, 3))
    grid = _grid(wl.WALK_SURFACE_GRID)
    verdict.check("walkthrough.surface", surf.shape == (grid.size ** 2, 3)
                  and np.array_equal(surf[:, 0], np.repeat(grid, grid.size))
                  and np.array_equal(surf[:, 1], np.tile(grid, grid.size)),
                  "surface.csv axes are not the grid")
    if surf.shape != (grid.size ** 2, 3):
        return
    _check_pgm(verdict, files["surface.pgm"], surf[:, 2].reshape(grid.size, grid.size))
    flipped = set()
    if reference is not None:
        ref_files = reference["files"]
        for name in ("prd.csv", "table.csv", "table.txt", "sweep.csv"):
            _compare_lines(verdict, f"walkthrough.{owner[name]}", name, files[name], ref_files[name])
        if not _compare_surface(verdict, "walkthrough.surface", surf[:, 2], grid, grid,
                                reference["surface"]):
            flipped.add("surface")
        ref_min = _csv_rows(ref_files["minima.csv"])
        got_min = _csv_rows(files["minima.csv"])
        verdict.check("walkthrough.match", len(got_min) == len(ref_min), "minima.csv row count")
        match_nodes = {(float(a), float(b)) for a in _grid(wl.WALK_MATCH_GRID) for b in _grid(wl.WALK_MATCH_GRID)}
        for g, w in zip(got_min[:-1], ref_min[:-1]):
            if g[:2] != w[:2] or g[2:4] == w[2:4]:
                verdict.check("walkthrough.match", formatted_close(",".join(g), ",".join(w)),
                              f"minima row {g} vs reference {w}")
            elif (float(g[2]), float(g[3])) in {(round(a, 10), round(b, 10)) for a, b in match_nodes} \
                    and abs(float(g[4]) - float(w[4])) <= 1.5e-6:
                verdict.flips.append(f"walkthrough.match: {w[:4]} -> {g[:4]}")
                flipped.add("match")
            else:
                verdict.fail("walkthrough.match", f"minima row {g} vs reference {w}")
        if "match" not in flipped:
            _compare_lines(verdict, "walkthrough.match", "minima.csv aggregate",
                           files["minima.csv"].splitlines()[-1], ref_files["minima.csv"].splitlines()[-1])
        for cmd, text in stdout.items():
            if cmd in flipped:
                continue
            _compare_lines(verdict, f"walkthrough.{cmd}", f"{cmd} stdout", text, reference["stdout"][cmd])
    _check_walkthrough_consistency(verdict, files, stdout, surf, grid)
    if oracle is not None:
        _check_walkthrough_oracle(verdict, run, seed, oracle, cohort, surf, grid)


def _check_pgm(verdict, text, prd):
    lines = text.splitlines()
    lo, hi = prd.min(), prd.max()
    gray = np.rint((prd - lo) / (hi - lo) * 255.0).astype(int)
    want = np.array([gray[:, j] for j in range(prd.shape[1] - 1, -1, -1)])
    try:
        got = np.array([[int(v) for v in line.split()] for line in lines[3:]])
        ok = lines[:3] == ["P2", f"{prd.shape[0]} {prd.shape[1]}", "255"] and \
            got.shape == want.shape and int(np.abs(got - want).max()) <= 1
    except ValueError:
        ok = False
    verdict.check("walkthrough.surface", ok, "surface.pgm does not render surface.csv")


def _check_walkthrough_consistency(verdict, files, stdout, surf, grid):
    i = int(np.argmin(surf[:, 2]))
    a, b, value = surf[i]
    line = stdout.get("surface", "").strip().splitlines()[-1:] or [""]
    want = (f"minimum PRD {value:.6f} % at a={a:.6f} rad ({a / math.pi:+.4f} pi), "
            f"b={b:.6f} rad ({b / math.pi:+.4f} pi)")
    verdict.check("walkthrough.surface", line[0] == want, f"surface stdout {line[0]!r}, expected {want!r}")
    rows = _csv_rows(files["minima.csv"])
    a_vals = [float(r[2]) for r in rows[:-1]]
    b_vals = [float(r[3]) for r in rows[:-1]]
    verdict.check("walkthrough.match", rows and rows[-1][0] == "aggregate"
                  and abs(float(rows[-1][2]) - np.mean(a_vals)) <= 2e-10
                  and abs(float(rows[-1][3]) - np.mean(b_vals)) <= 2e-10,
                  "minima.csv aggregate is not the mean of the minima")


def _check_walkthrough_oracle(verdict, run, seed, oracle, cohort, surf, grid):
    files = run["files"]
    rng = np.random.default_rng((seed, 3))
    # simulate: sampled recordings round-trip bit-exactly
    keys = sorted(cohort.recordings)
    for k in _sample(rng, len(keys), 3):
        subject, state = keys[k]
        path = Path(run["work"]) / "cohort" / "recordings" / f"{subject}_{state}.csv"
        rec = cohort.get(subject, state)
        ok = path.is_file()
        if ok:
            lines = path.read_text(encoding="ascii").splitlines()
            body = np.array([[float(v) for v in line.split(",")] for line in lines[6:]])
            ok = (f"# subject: {subject}" in lines and f"# state: {state}" in lines
                  and body.shape == (rec.n_samples, len(rec.channel_ids) + 1)
                  and np.array_equal(body[:, 1:], rec.samples))
        verdict.check("walkthrough.simulate", ok, f"{subject}_{state}.csv does not hold the simulated samples")
    # compress: every kept count, sampled PRDs
    rows = _csv_rows(files["prd.csv"])
    n = int(wl.WALK_DURATION_S * SAMPLE_RATE_HZ)
    _, kept, total = oracle.compress(np.ones(n), "daubechies-3", DB3_DEPTH_10HZ, 3.0)
    verdict.check("walkthrough.compress", len(rows) == len(keys) * wl.WALK_CHANNELS
                  and all(r[3] == str(kept) and r[4] == str(total) for r in rows),
                  f"kept/total columns are not {kept}/{total} on {len(keys) * wl.WALK_CHANNELS} rows")
    for j in _sample(rng, len(rows), 8):
        subject, state, ch = rows[j][0], rows[j][1], int(rows[j][2])
        want = oracle.named_prd(cohort.get(subject, state).channel(ch), 3.0)
        verdict.check("walkthrough.compress", abs(float(rows[j][5]) - want) <= 1.5e-6,
                      f"prd.csv row {j}: {rows[j][5]} vs oracle {want:.9f}")
    # stats: the whole table
    basal = _state_prds(oracle, cohort, "basal", 3.0)
    severe = _state_prds(oracle, cohort, "severe", 3.0)
    for row in _csv_rows(files["table.csv"]):
        ch = int(row[0])
        _row_checks(verdict, "walkthrough.stats", row, oracle.compare(basal[ch], severe[ch]), True)
    # sweep: one sampled CR, both pairs
    sweep_rows = _csv_rows(files["sweep.csv"])
    k = int(rng.integers(len(wl.CRS)))
    cr = float(wl.CRS[k])
    prds = {"basal": basal if cr == 3.0 else _state_prds(oracle, cohort, "basal", cr),
            "mild": _state_prds(oracle, cohort, "mild", cr),
            "severe": severe if cr == 3.0 else _state_prds(oracle, cohort, "severe", cr)}
    for j, (state_a, state_b) in enumerate((("basal", "mild"), ("basal", "severe"))):
        results = [oracle.compare(prds[state_a][ch], prds[state_b][ch]) for ch in sorted(prds[state_a])]
        row = sweep_rows[k * wl.SWEEP_PAIRS + j] if len(sweep_rows) > k * wl.SWEEP_PAIRS + j else []
        if any(r[5] for r in results):
            continue
        sig = sum(r[3] for r in results)
        want = [f"{cr:g}", state_a, state_b, str(sig), str(len(results)), f"{100.0 * sig / len(results):.2f}"]
        verdict.check("walkthrough.sweep", row == want, f"sweep row {row} vs oracle {want}")
    # surface: sampled nodes and the argmin
    x = cohort.get("dog00", "basal").channel(7)
    i = int(np.argmin(surf[:, 2]))
    for j in _sample(rng, surf.shape[0], 8) + [i]:
        a, b, got = surf[j]
        want = oracle.compress(x, (a, b), 6, 3.0)[0]
        verdict.check("walkthrough.surface", abs(got - want) <= FLOAT_TOL,
                      f"surface PRD at ({a!r}, {b!r}) {got!r}, oracle {want!r}")
    # match: every node of two sampled traces
    minima = _csv_rows(files["minima.csv"])[:-1]
    mgrid = _grid(wl.WALK_MATCH_GRID)
    for j in _sample(rng, len(minima), 2):
        subject, ch = minima[j][0], int(minima[j][1])
        x = cohort.get(subject, "basal").channel(ch)
        values = np.array([oracle.compress(x, (a, b), 6, 3.0)[0] for a in mgrid for b in mgrid])
        best = int(np.argmin(values))
        got_node = (float(minima[j][2]), float(minima[j][3]))
        want_node = (round(float(mgrid[best // mgrid.size]), 10), round(float(mgrid[best % mgrid.size]), 10))
        got_prd = float(minima[j][4])
        if got_node != want_node:
            at = {(round(float(a), 10), round(float(b), 10)): v
                  for (a, b), v in zip([(a, b) for a in mgrid for b in mgrid], values)}
            ok = got_node in at and abs(at[got_node] - values[best]) <= FLOAT_TOL
            verdict.check("walkthrough.match", ok, f"minimum {got_node} vs oracle {want_node}")
            if ok:
                verdict.flips.append(f"walkthrough.match oracle: {want_node} -> {got_node}")
        verdict.check("walkthrough.match", abs(got_prd - values[best]) <= 1.5e-6,
                      f"minimum PRD {got_prd} vs oracle {values[best]:.9f}")


# ---------------------------------------------------------------------------
# Reference construction (make_reference.py)


def reference_from(workload, outputs):
    """The stored form of one pass's outputs."""
    if workload == "sweep":
        return {"rows": outputs["rows"], "points": outputs["points"]}
    if workload == "scan":
        grid = _grid(wl.SCAN_GRID)
        traces = []
        for minimum, coarse, found, (a_vals, b_vals, refined) in zip(
                outputs["minima"], outputs["surfaces"], outputs["surface_minima"], outputs["refined"]):
            traces.append({"minimum": minimum,
                           "surface": surface_digest(coarse, grid, grid),
                           "refined_near": surface_digest(refined, a_vals, b_vals)["near"],
                           "surface_minima": found})
        return {"traces": traces, "aggregate": outputs["aggregate"]}
    files = outputs["files"]
    grid = _grid(wl.WALK_SURFACE_GRID)
    prd = [float(row[2]) for row in _csv_rows(files["surface.csv"])]
    return {"files": {name: files[name] for name in
                      ("prd.csv", "table.csv", "table.txt", "sweep.csv", "minima.csv")},
            "surface": surface_digest(prd, grid, grid),
            "stdout": outputs["stdout"]}
