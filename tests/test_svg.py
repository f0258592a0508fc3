"""The dependency-free SVG charts."""
from pathlib import Path

import numpy as np
import pytest

from preydelay import cli, integrate
from preydelay.svg import Series, stacked_chart, trajectory_chart

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"


@pytest.mark.parametrize("value", [1.5, np.float64(1.5)],
                         ids=["float", "float64"])
def test_one_point_series_draws_no_nan(tmp_path, value):
    path = tmp_path / "one.svg"
    stacked_chart([([Series("v", [value], [value])], "one point", "t", "v")],
                  path)
    text = path.read_text()
    assert "nan" not in text
    assert '<polyline points="70,' in text


def test_demo_chart_is_the_stride_grid_chart(tmp_path):
    # on the demo config the evenly spaced samples are the stride grid's
    # times bit for bit, so the chart is the one sampled by np.arange
    scn = cli.load_scenario(DEMO_CONFIG)
    traj = integrate(scn.model, scn.history, scn.stepper)
    stride = scn.outputs.stride
    trajectory_chart(scn.model, traj, tmp_path / "chart.svg", stride)

    ts = np.arange(0.0, traj.t_end + stride / 2, stride)
    vals = traj.sample(ts)
    taus = [scn.model.delay.tau(max(v, 0.0)) for v in vals[:, 1]]
    stacked_chart(
        [([Series("x", list(ts), list(vals[:, 0])),
           Series("y", list(ts), list(vals[:, 1])),
           Series("yj", list(ts), list(vals[:, 2]))],
          "population densities", "t", "density"),
         ([Series("tau(y)", list(ts), taus)],
          "maturation delay along the run", "t", "tau")],
        tmp_path / "grid.svg")
    assert len(ts) == 161
    assert ((tmp_path / "chart.svg").read_bytes()
            == (tmp_path / "grid.svg").read_bytes())


def test_trajectory_chart_rejects_a_stride_that_is_not_positive(
        tmp_path, bd_model, bd_traj):
    with pytest.raises(ValueError, match="stride must be positive"):
        trajectory_chart(bd_model, bd_traj, tmp_path / "chart.svg", 0.0)
