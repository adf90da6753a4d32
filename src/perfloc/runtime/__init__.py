"""Interpreter: flat IR, two engines with identical step accounting."""

from .exec import ENGINE_NAME

__all__ = ["ENGINE_NAME"]
