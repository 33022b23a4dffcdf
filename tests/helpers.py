"""Shared closed-form oracles for the test suite."""

import numpy as np

import aristotle_orbits as ao

#: Counterclockwise rotation generator, d/dtheta R(theta) at theta = 0.
EPS0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def cyclotron_exact(p0, q0, t, params):
    """Closed-form kinetic flow on the double chart.

    dp/dt = -omega EPS0 p (clockwise rotation), dq/dt = p / m.
    """
    w = params.omega
    rot = ao.rotation(-w * t)
    p = rot @ p0
    q = q0 + (1.0 / (params.m * w)) * (EPS0 @ ((rot - np.eye(2)) @ p0))
    return p, q


def read_trajectory_csv(path):
    """Read back a trajectory file; values round-trip bit for bit."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.array(data)


def label_defect(traj, labels, params):
    """Per Casimir, max |Casimirs(dual_from_chart(sample)) - labels|.

    Taken over every sample of a Hamiltonian flow's trajectory: a chart
    point that does not reconstruct a dual point on its orbit shows here.
    """
    points = ao.OrbitPoint(traj.model, traj.coords, labels)
    rebuilt = ao.casimirs(traj.model, ao.dual_from_chart(points, params),
                          params)
    return np.abs(rebuilt - labels).max(axis=0)
