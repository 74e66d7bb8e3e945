"""Visual-inertial localization against a prior laser map.

Modules split along the processing pipeline: Lie-group math and IMU
preintegration feed the residual/solver stack; the simulator produces
multi-session sensor data; the map pipeline distills a stable localization
map from it; the estimator runs sliding-window localization against that
map.
"""

__version__ = "0.1.0"
