"""Trace the two-frame superluminal relay and find where causality breaks.

Two channels each carry signals at speed u > 1 (in their own sender's
rest frame), bridged by light legs.  Above a critical relative frame
speed beta = 2u/(1+u^2), the return message arrives before the original
was sent.
"""

from stimamp.kinematics import LoopConfig, run_loop, violation_threshold

print("Round trip with u=2, L=1, ell=0:")
for beta in (0.0, 0.5, 0.8, 0.9, 0.99):
    report = run_loop(LoopConfig(u=2.0, beta=beta))
    flag = "VIOLATED" if report.violated else "ok"
    print(f"  beta={beta:4.2f}: delta_t={report.delta_t:+8.4f}  {flag}")

print("\nCritical beta vs closed form 2u/(1+u^2):")
for u in (1.0, 1.5, 2.0, 5.0, 10.0):
    thr = violation_threshold(u)
    if thr is None:
        print(f"  u={u:5.1f}: never violates")
    else:
        print(f"  u={u:5.1f}: bisection {thr:.8f},  closed form {2 * u / (1 + u * u):.8f}")

print("\nEvent chain at u=2, beta=0.9 (lab-frame coordinates):")
r = run_loop(LoopConfig(u=2.0, beta=0.9))
for name, e in (
    ("emission", r.emission),
    ("handoff1", r.handoff1),
    ("handoff2", r.handoff2),
    ("arrival", r.arrival),
):
    print(f"  {name:>8}: t={e.t:+8.4f}  x={e.x:+8.4f}")
