"""Generator-based cooperative processes for the DES kernel.

A process is a Python generator that ``yield``\\ s *wait conditions*:

``Timeout(dt)``
    Resume the generator ``dt`` simulated seconds later.

``SimProcess``
    Yielding another process waits for it to finish; the joined process's
    result becomes the value of the ``yield`` expression.

The generator's ``return`` value becomes :attr:`SimProcess.result`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

_INF = float("inf")


class Timeout:
    """Wait condition: resume after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        # One chained comparison rejects negative, infinite and NaN delays
        # alike: an infinite wait would park the process forever.
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"Timeout delay must be finite and non-negative, got {delay}"
            )
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class SimProcess:
    """A running cooperative process.  Created via :meth:`Simulator.spawn`."""

    __slots__ = ("sim", "name", "_gen", "finished", "result", "error", "_joiners")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "process") -> None:
        self.sim = sim
        self.name = name
        self._gen = generator
        self.finished = False
        self.result: object = None
        self.error: BaseException | None = None
        self._joiners: list["SimProcess"] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"<SimProcess {self.name} {state}>"

    # ------------------------------------------------------------------
    # kernel-facing machinery
    # ------------------------------------------------------------------
    def _start(self) -> None:
        sim = self.sim
        sim._queue.push_callback(sim._now, self._resume)

    def _resume(self, value: object = None) -> None:
        if self.finished:
            return
        try:
            condition = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Exception as exc:  # noqa: BLE001 - surfaced via .error
            self._finish(None, exc)
            return
        # Dispatch ordered by frequency: Timeout is the hot wait condition
        # (one per compute/stall slice), joins are rare.
        # The wake-up goes straight onto the event heap:
        # Timeout.__init__ already rejected negative and non-finite delays,
        # and the bound ``_resume`` itself is the callback — ``value``
        # defaults to None.
        if type(condition) is Timeout:
            sim = self.sim
            sim._queue.push_callback(sim._now + condition.delay, self._resume)
        else:
            self._wait_on(condition)

    def _wait_on(self, condition: object) -> None:
        if isinstance(condition, SimProcess):
            condition._add_joiner(self)
        else:
            self._finish(
                None,
                SimulationError(
                    f"process {self.name!r} yielded an unsupported condition: {condition!r}"
                ),
            )

    def _finish(self, result: object, error: BaseException | None) -> None:
        self.finished = True
        self.result = result
        self.error = error
        joiners, self._joiners = self._joiners, []
        for proc in joiners:
            self.sim.schedule(0.0, lambda p=proc: p._resume(self.result))

    def _add_joiner(self, proc: "SimProcess") -> None:
        if self.finished:
            self.sim.schedule(0.0, lambda: proc._resume(self.result))
        else:
            self._joiners.append(proc)

    # ------------------------------------------------------------------
    # user API
    # ------------------------------------------------------------------
    def take_error(self) -> BaseException | None:
        """Return the error the process ended with, and forget it.

        For a caller that raises the error on: its traceback runs through
        frames that hold this process, so a process that kept the error
        would form a reference cycle with it."""
        error, self.error = self.error, None
        return error

    def interrupt(self) -> None:
        """Terminate the process; it will never be resumed again."""
        if not self.finished:
            self._gen.close()
            self._finish(None, None)
