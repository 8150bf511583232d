import numpy as np

from distpac.core import Threshold


def threshold_grid(points: int = 201):
    return [Threshold(float(t), s)
            for t in np.linspace(0.0, 1.0, points) for s in (1, -1)]
