"""Stimulated-emission amplifier statistics, EPR signaling, and causal-loop kinematics."""
