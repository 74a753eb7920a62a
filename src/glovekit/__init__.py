"""Sensor-glove teleoperation toolkit.

Wire-protocol codec, virtual glove emulator, calibration maps, probabilistic
trajectory model, and a simulated impedance-tracking reproduction loop.
"""

__version__ = "0.1.0"
