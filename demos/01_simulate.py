"""Simulate the delayed predator-prey system and export the trajectory.

A logistic prey is coupled to a two-stage predator whose maturation time
tau(y) lengthens as the mature stock grows.  We build a model with a
Beddington-DeAngelis response, integrate it by the method of steps, and dump
the dense solution to CSV plus a small SVG chart: prey x, mature y and
juvenile yj, then the delay tau(y), sampled evenly over the whole run
(at the CSV's stride, at most 1 260 points).
"""
import pathlib

from preydelay import (ModelParams, ModelSpec, beddington_deangelis,
                       consistent_history, default_stepper, export_csv,
                       integrate, saturating_delay, validate, yj_integral)
from preydelay.svg import trajectory_chart

out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

model = ModelSpec(
    params=ModelParams(r=1.0, K=5.0, n=1.0, dj=0.55, d=0.45),
    delay=saturating_delay(tau_m=0.5, tau_M=1.0, theta=1.0),
    response=beddington_deangelis(b=1.0, k1=0.0, k2=10.0),
)

# sanity-check the hypotheses before running anything
report = validate(model)
print(report)
assert report.passed

# a history whose juvenile level matches the recruitment its prey and
# predator histories imply, so the juvenile channel starts consistently
history = consistent_history(model, x0=2.0, y0=0.4, amp=0.2, omega=2.0)

traj = integrate(model, history, default_stepper(model, t_end=80.0))
print(f"integrated {traj.n_steps} steps to t = {traj.t_end:g}")
x, y, yj = traj.lookup(traj.t_end)
print(f"final state: x = {x:.6g}, y = {y:.6g}, yj = {yj:.6g}")

# the juvenile stock can be recomputed from the other two channels alone;
# the two routes agree to a few parts in a million
for t in (5.0, 20.0, 60.0):
    ode = traj.lookup(t)[2]
    quad = yj_integral(model, traj, t)
    print(f"t = {t:5.1f}:  yj-ode = {ode:.8f}   yj-integral = {quad:.8f}")

export_csv(model, traj, out / "trajectory.csv", stride=0.25)
trajectory_chart(model, traj, out / "trajectory.svg", stride=0.25)
print(f"wrote {out / 'trajectory.csv'} and {out / 'trajectory.svg'}")
