"""Pinned constants. The source papers leave most constants existential;
these are the calibrated values used throughout, embedded into every
output file for reproducibility.  Each key is read by the code that runs
with it (tests/test_calibration.py checks both directions), so the block
is what ran."""

SCHEMA_VERSION = 1

CALIBRATION = {
    # regime selection for the quantization function
    "sector_C": 8.0,          # case 1/2 split: |arg mu -+ pi/2| <= pi - 1/C
    "small_C1": 10.0,         # |mu| <= C1 h switches to the small-mu forms
    # Stirling / tableau admissibility margins (radians)
    "stirling_conic_margin": 0.2,
    "tableau_sector_margin": 0.1,
    # skeleton and body
    "body_C": 10.0,           # disc radius C h / ln(1/<mu>_h)
    "box_C": 1.0,             # exceptional box C (eps + h^2/eps); C=1
    # contains mu_A, mu_B (|Re mu_A| <= width/pi) with a factor-pi margin
    # zero counting
    "winding_phase_cap_rad": 1.5707963267948966,
    "cell_budget": 100000,
    # the model's seeds for locate_zeros: Bohr-Sommerfeld roots where
    # |Re mu| >= seed_split_C h, and in the branching strip inside, the
    # skeleton's S' samples and diamond centres; these certified the strip
    # with one count on 26 of 26 models (criterion 7's ten and the 16
    # model benchmark jobs of seeds 0-7)
    "seed_split_C": 6.0,
    "newton_residual_tol": 1e-9,
    "bs_residual_tol": 1e-12,
    # bijection rate floor: the BS Newton stops at residual 1e-12, so a
    # root's position error is ~1e-12/|phi'|
    "bs_position_floor": 5e-12,
    # flow averages: (b, c, d) this close to a line c = +-b, c = +-(b+d)
    # (in floats) is on the boundary between two regions
    "region_line_tol": 1e-9,
    # direct numerics
    "spurious_match_tol": 1e-6,
}


def embed(doc, **ran):
    """Attach the calibration block to an output document (dict), with
    the values in `ran` that a run used in place of the defaults."""
    doc = dict(doc)
    doc["calibration"] = {**CALIBRATION, **ran}
    doc["schema_version"] = SCHEMA_VERSION
    return doc
