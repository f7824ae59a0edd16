"""The shared output formats: report JSON and CSV tables."""

import dataclasses
import json

import numpy as np
import pytest

from sobtrace.domains import ProbeRow, ball_portion_scan, gallery, rasterize, rectangle
from sobtrace.isoperimetry import profile_search
from sobtrace.lorentz import ac_diagnostic
from sobtrace.rearrangement import SampledFunction, rearrange
from sobtrace.report import Report, csv_columns, csv_text
from sobtrace.traces import approximation_scheme, constant_function, oned_zero_trace


def _cube2():
    return rasterize(gallery("cube2"), 2.0**-4)


REPORTS = {
    "ACReport": lambda: ac_diagnostic(SampledFunction(values=[2.0, 1.0],
                                                      measures=[0.5, 0.5]), p=1.0),
    "DiagnosticReport": lambda: approximation_scheme(constant_function(_cube2()), 1.0),
    "OneDTraceReport": lambda: oned_zero_trace(lambda x: x * (1 - x), 0.0, 1.0, 2.0),
    "BallPortionReport": lambda: ball_portion_scan(gallery("squares_stack", kmax=4),
                                                   mc_samples=500),
    "ProfilePoint": lambda: profile_search(rasterize(rectangle(0.5), 2.0**-5), 0.05),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_json_keys_are_the_fields(name):
    rep = REPORTS[name]()
    assert type(rep).__name__ == name and isinstance(rep, Report)
    payload = json.loads(rep.to_json())
    assert set(payload) == {f.name for f in dataclasses.fields(rep)}


def test_scan_rows_are_named():
    rep = ball_portion_scan(gallery("squares_stack", kmax=4), mc_samples=500)
    row = rep.probes[0]
    assert isinstance(row, ProbeRow)
    point, radius, ratio, stderr, n = row
    assert row == (row.point, row.radius, row.ratio, row.stderr, row.n)
    assert row[4] == n
    payload = json.loads(rep.to_json())
    for entry in payload["probes"] + payload["violating_sequence"]:
        assert set(entry) == {"point", "radius", "ratio", "stderr", "n"}
    assert payload["probes"][0]["point"] == list(point)


def test_csv_writers_keep_their_headers():
    f = SampledFunction(values=[2.0, 1.0], measures=[0.25, 0.75])
    gd = _cube2()
    headers = {
        f.to_csv(): "value,measure",
        rearrange(f).to_csv(): "t_break,level",
        approximation_scheme(constant_function(gd), 1.0).to_csv():
            "k,res_w1p,measure_Ek,k_mu_pow,resolution_limited",
        gd.to_csv(): "i,j,inside,distance",
        rasterize(gallery("cube3"), 0.5).to_csv(): "i,j,k,inside,distance",
    }
    for text, header in headers.items():
        assert text.splitlines()[0] == header


def test_csv_cells():
    rows = [(0.1, True, None, 3),
            (np.float64(1 / 3), np.bool_(False), 2.5, np.int64(-4))]
    text = csv_text("a,b,c,d", rows)
    assert text == "a,b,c,d\n0.10000000000000001,1,,3\n0.33333333333333331,0,2.5,-4\n"
    assert csv_text("x,y", []) == "x,y\n"
    assert csv_columns(csv_text("x,y", [(1 / 3, 2.0)]), "x,y") == ([1 / 3], [2.0])
