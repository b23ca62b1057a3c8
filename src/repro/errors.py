"""Exception hierarchy shared by every layer of the package.

Every error raised by the library derives from :class:`ReproError`, so callers
can guard a full compile-and-simulate flow with a single ``except`` clause.
The front end distinguishes lexical, syntactic and elaboration problems because
they point at different stages of a user's design entry workflow.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class HDLError(ReproError):
    """Base class for errors produced by the Verilog-subset front end."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class LexerError(HDLError):
    """Raised when the tokenizer encounters a character it cannot classify."""


class ParseError(HDLError):
    """Raised when the parser encounters an unexpected token sequence."""


class ElaborationError(HDLError):
    """Raised during hierarchy flattening / parameter resolution."""


class UnsupportedConstructError(HDLError):
    """Raised for Verilog constructs outside the supported subset."""


class SimulationError(ReproError):
    """Raised when the simulation kernel detects an inconsistent state."""


class UnknownOptionError(SimulationError, ValueError):
    """Raised for an unknown selector name (engine=, runner kinds, mode names...).

    Subclasses both :class:`SimulationError` (so library-wide ``except``
    clauses keep working) and :class:`ValueError` (it is a bad argument
    value); the message always lists the valid names.
    """

    @classmethod
    def for_option(cls, kind: str, got: object, valid) -> "UnknownOptionError":
        return cls(f"unknown {kind} {got!r}; available: {sorted(valid)}")


class ConvergenceError(SimulationError):
    """Raised when combinational propagation fails to reach a fixed point."""


class ChaosError(SimulationError):
    """Raised for malformed chaos-injection plans, and *by* the ``raise``
    chaos action inside a worker chunk (the structured stand-in for an
    unexpected exception escaping a chunk runner)."""


class FaultModelError(ReproError):
    """Raised for invalid fault specifications (bad site, bit out of range...)."""


class StimulusError(ReproError):
    """Raised when a stimulus references unknown ports or malformed vectors."""


class HarnessError(ReproError):
    """Raised by the experiment harness for unknown experiments/benchmarks."""
