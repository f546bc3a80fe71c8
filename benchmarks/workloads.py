"""The three benchmark workloads: their inputs, passes and count models.

``walkthrough`` runs the README's six CLI commands, each in a fresh
interpreter; ``sweep`` and ``scan`` each run one library pass in a fresh
interpreter on an in-memory cohort.  The package only ever receives the
generated cohort; the seed stays with the benchmark.
"""

from __future__ import annotations

NAMES = ("walkthrough", "sweep", "scan")

STATES = 3  # basal, mild, severe
CRS = (2, 3, 4, 5, 8)
SWEEP_PAIRS = 2  # cr_sweep's default pairs: basal:mild, basal:severe

# walkthrough: the README commands on a 16-subject, 8-channel cohort.  The
# recordings are 200 s instead of the README's 600 s, the surface keeps the
# README's grid 64 on one channel, and match scans grid 8 on one channel,
# so that one pass fits the run length (``scan`` covers match at grid 64).
WALK_SUBJECTS = 16
WALK_CHANNELS = 8
WALK_DURATION_S = 200
WALK_SURFACE_GRID = 64
WALK_MATCH_GRID = 8
WALK_MATCH_CHANNELS = (7,)

# sweep: compare_states(basal, severe) plus cr_sweep over CRS, on the
# README's 16-subject, 8-channel, 600 s cohort.
SWEEP_SUBJECTS = 16
SWEEP_CHANNELS = 8

# scan: match_cohort on basal at grid 64, depth 6, CR 3, refine=True, plus
# surface_minima on each grid-64 surface, for two 600 s traces.
SCAN_SUBJECTS = 2
SCAN_CHANNELS = 1
SCAN_GRID = 64
SCAN_REFINE = 8  # refine_surface's default resolution
SCAN_DEPTH = 6
SCAN_CR = 3.0


def walkthrough_commands(seed: int, work: str) -> list:
    """The README walkthrough as ``(name, argv)`` pairs, run in order."""
    cohort = f"{work}/cohort"
    manifest = f"{cohort}/manifest.txt"
    return [
        ("simulate", ["simulate", "--out", cohort, "--subjects", str(WALK_SUBJECTS),
                      "--channels", str(WALK_CHANNELS), "--duration", str(WALK_DURATION_S),
                      "--seed", str(seed)]),
        ("compress", ["compress", "--data", manifest, "--out", f"{work}/prd.csv"]),
        ("stats", ["stats", "--data", manifest, "--pair", "basal:severe",
                   "--out-csv", f"{work}/table.csv", "--out-text", f"{work}/table.txt"]),
        ("sweep", ["sweep", "--data", manifest, "--crs", ",".join(map(str, CRS)),
                   "--out", f"{work}/sweep.csv"]),
        ("surface", ["surface", "--recording", f"{cohort}/recordings/dog00_basal.csv",
                     "--channel", "7", "--grid", str(WALK_SURFACE_GRID), "--depth", "6",
                     "--out-csv", f"{work}/surface.csv", "--out-pgm", f"{work}/surface.pgm"]),
        ("match", ["match", "--data", manifest, "--state", "basal",
                   "--grid", str(WALK_MATCH_GRID), "--depth", "6",
                   "--channels", ",".join(map(str, WALK_MATCH_CHANNELS)),
                   "--out", f"{work}/minima.csv"]),
    ]


WALK_OUTPUT_FILES = ("prd.csv", "table.csv", "table.txt", "sweep.csv",
                     "surface.csv", "surface.pgm", "minima.csv")


def cohort_spec(workload: str, seed: int):
    from eggwave import CohortSpec

    if workload == "sweep":
        return CohortSpec(subjects=SWEEP_SUBJECTS, channels=SWEEP_CHANNELS, seed=seed)
    if workload == "scan":
        return CohortSpec(subjects=SCAN_SUBJECTS, channels=SCAN_CHANNELS, seed=seed)
    return CohortSpec(subjects=WALK_SUBJECTS, channels=WALK_CHANNELS,
                      duration_s=float(WALK_DURATION_S), seed=seed)


def run_sweep(cohort) -> dict:
    from eggwave import compare_states, cr_sweep

    rows = compare_states(cohort, "basal", "severe")
    points = cr_sweep(cohort, CRS)
    return {
        "rows": [[r.channel, r.test_name, r.delta_mean, r.delta_sd, r.significant, r.p_value]
                 for r in rows],
        "points": [[p.cr, p.state_a, p.state_b, p.significant_channels, p.total_channels,
                    p.detection_percent] for p in points],
    }


def run_scan(cohort) -> dict:
    """match_cohort plus surface_minima on each grid-64 surface it scanned.

    The surfaces are taken from ``eggwave.matcher.prd_surface`` as
    match_cohort produces them, so no plane node is evaluated twice.
    """
    import eggwave.matcher as matcher
    from eggwave import GridSpec

    surfaces = []
    scan = matcher.prd_surface

    def tapped(*args, **kwargs):
        surface = scan(*args, **kwargs)
        surfaces.append(surface)
        return surface

    matcher.prd_surface = tapped
    try:
        result = matcher.match_cohort(cohort, "basal", GridSpec(resolution=SCAN_GRID),
                                      cr=SCAN_CR, levels=SCAN_DEPTH, refine=True)
    finally:
        matcher.prd_surface = scan
    coarse = [s for s in surfaces if s.prd.shape == (SCAN_GRID, SCAN_GRID)]
    minima = [matcher.surface_minima(s) for s in coarse]
    return {
        "minima": [[m.subject, m.channel, m.a, m.b, m.prd_percent] for m in result.minima],
        "aggregate": list(result.aggregate),
        "surface_minima": [[list(t) for t in found] for found in minima],
        "surfaces": [s.prd.ravel().tolist() for s in coarse],
        "refined": [[s.a_values.tolist(), s.b_values.tolist(), s.prd.ravel().tolist()]
                    for s in surfaces if s.prd.shape == (SCAN_REFINE, SCAN_REFINE)],
    }


def expected_counts(workload: str) -> tuple:
    """Call counts each workload implies, and which of them are hard.

    Hard counts follow from the outputs (table rows, plane nodes, files,
    commands) and must match a traced run exactly.  The rest record the
    kernel's present call pattern (one forward/inverse DWT and one PRD per
    compress, auto depth per named-wavelet compress); a change such as
    transforming once across CRs moves them, and the traced run reports
    that drift instead of failing.
    """
    if workload == "walkthrough":
        recordings = WALK_SUBJECTS * STATES
        signals = recordings * WALK_CHANNELS
        stats_signals = 2 * WALK_SUBJECTS * WALK_CHANNELS
        sweep_signals = len(CRS) * signals
        surface_nodes = WALK_SURFACE_GRID ** 2
        match_nodes = WALK_SUBJECTS * len(WALK_MATCH_CHANNELS) * WALK_MATCH_GRID ** 2
        rows = WALK_CHANNELS * (1 + len(CRS) * SWEEP_PAIRS)
        named = signals + stats_signals + sweep_signals
        compresses = named + surface_nodes + match_nodes
        hard = {
            **{f"cli.{c}": 1 for c in ("simulate", "compress", "stats", "sweep", "surface", "match")},
            "simulate.simulate_cohort": 1,
            "io.write_cohort": 1,
            "io.write_recording": recordings,
            "io.load_cohort": 4,
            "io.read_recording": 4 * recordings + 1,
            "stats.compare_states": 1,
            "stats.cr_sweep": 1,
            "stats.compare_paired": rows,
            "stats.lilliefors": rows,
            "matcher.prd_surface": 1 + WALK_SUBJECTS * len(WALK_MATCH_CHANNELS),
            "matcher.match_cohort": 1,
            "matcher.nodes_evaluated": surface_nodes + match_nodes,
            "matcher.traces": 1 + WALK_SUBJECTS * len(WALK_MATCH_CHANNELS),
        }
        soft = {
            "compression.compress": compresses,
            "compression.prd": compresses,
            "wavelets.dwt_forward": compresses,
            "wavelets.dwt_inverse": compresses,
            "wavelets.pollen_filter": surface_nodes + match_nodes,
            "wavelets.select_scales": named,
            "stats.state_prds": 2 + len(CRS) * STATES,
            # surface and match read traces that compress already transformed
            "wavelets.distinct_signals": signals,
        }
    elif workload == "sweep":
        signals = SWEEP_SUBJECTS * SWEEP_CHANNELS * STATES
        named = 2 * SWEEP_SUBJECTS * SWEEP_CHANNELS + len(CRS) * signals
        rows = SWEEP_CHANNELS * (1 + len(CRS) * SWEEP_PAIRS)
        hard = {
            "simulate.simulate_cohort": 1,
            "stats.compare_states": 1,
            "stats.cr_sweep": 1,
            "stats.compare_paired": rows,
            "stats.lilliefors": rows,
            "matcher.nodes_evaluated": 0,
            "io.read_recording": 0,
        }
        soft = {
            "compression.compress": named,
            "compression.prd": named,
            "wavelets.dwt_forward": named,
            "wavelets.dwt_inverse": named,
            "wavelets.select_scales": named,
            "wavelets.pollen_filter": 0,
            "stats.state_prds": 2 + len(CRS) * STATES,
            "wavelets.distinct_signals": signals,
        }
    else:
        traces = SCAN_SUBJECTS * SCAN_CHANNELS
        nodes = traces * (SCAN_GRID ** 2 + SCAN_REFINE ** 2)
        hard = {
            "simulate.simulate_cohort": 1,
            "matcher.match_cohort": 1,
            "matcher.prd_surface": 2 * traces,
            "matcher.refine_surface": traces,
            "matcher.surface_minima": traces,
            "matcher.traces": traces,
            "matcher.nodes_evaluated": nodes,
            "compression.compress": nodes,
            "stats.compare_paired": 0,
            "io.read_recording": 0,
        }
        soft = {
            "compression.prd": nodes,
            "wavelets.dwt_forward": nodes,
            "wavelets.dwt_inverse": nodes,
            "wavelets.pollen_filter": nodes,
            "wavelets.select_scales": 0,
            "wavelets.distinct_signals": traces,
        }
    return {**hard, **soft}, frozenset(hard)
