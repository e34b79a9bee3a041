"""Turing machines and the undecidability setting D_halt (Theorem 6.2).

Theorem 6.2 proves Existence-of-CWA-Solutions undecidable by building a
fixed data exchange setting ``D_halt`` that simulates deterministic
one-tape Turing machines: a machine M (encoded as a source instance
``S_M``) halts on the empty input iff a CWA-solution for ``S_M`` exists.

This module provides

* a deterministic one-tape Turing machine substrate (the machine model of
  the proof: δ total on (Q ∖ Q_F) × Σ, tape infinite to the right only),
* the setting ``D_halt`` with exactly the paper's dependencies,
* the encoding ``S_M`` of a machine,
* a *witness construction*: for a machine that halts within a budget, the
  finite target instance that the full version's proof exhibits -- the
  run grid with the tape closed off by a NEXTPOS self-loop -- which our
  CWA-presolution recognizer then certifies,
* chase-based simulation checks: the standard chase of ``S_M`` reproduces
  M's configurations step by step (and never terminates, since the
  END rule extends the time-0 tape forever -- which is exactly why the
  *standard* chase cannot decide the problem).

Everything undecidable is exercised under explicit budgets; see
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.errors import ReproError
from ..core.instance import Instance
from ..core.schema import Schema
from ..core.terms import Const, Null, Value
from ..exchange.setting import DataExchangeSetting

BLANK = "_"
LEFT = "L"
RIGHT = "R"

Transition = Tuple[str, str, str]  # (next state, written symbol, direction)


class TuringMachine:
    """A deterministic one-tape Turing machine, tape infinite to the right.

    ``delta`` maps ``(state, symbol)`` to ``(state', symbol', direction)``
    and must be total on ``(states ∖ final_states) × alphabet`` (as in the
    paper's Halt variant).  The blank symbol is implicit in the alphabet.
    """

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        delta: Dict[Tuple[str, str], Transition],
        start_state: str,
        final_states: Sequence[str],
    ):
        self.states = tuple(states)
        self.alphabet = tuple(dict.fromkeys(tuple(alphabet) + (BLANK,)))
        self.delta = dict(delta)
        self.start_state = start_state
        self.final_states = frozenset(final_states)
        self._validate()

    def _validate(self) -> None:
        if self.start_state not in self.states:
            raise ReproError(f"unknown start state {self.start_state!r}")
        for final in self.final_states:
            if final not in self.states:
                raise ReproError(f"unknown final state {final!r}")
        for state in self.states:
            if state in self.final_states:
                continue
            for symbol in self.alphabet:
                if (state, symbol) not in self.delta:
                    raise ReproError(
                        f"δ must be total: missing ({state!r}, {symbol!r})"
                    )
        for (state, symbol), (next_state, written, direction) in self.delta.items():
            if state in self.final_states:
                raise ReproError(
                    f"δ must not be defined on final state {state!r}"
                )
            if next_state not in self.states or written not in self.alphabet:
                raise ReproError(
                    f"bad transition δ({state!r}, {symbol!r}) = "
                    f"({next_state!r}, {written!r}, {direction!r})"
                )
            if direction not in (LEFT, RIGHT):
                raise ReproError(f"direction must be L or R, got {direction!r}")

    def run_on_empty(self, max_steps: int) -> "MachineRun":
        """Simulate on the empty input for up to ``max_steps`` steps.

        Positions are 1-based (the paper starts the head at position 1).
        Returns the full configuration history.
        """
        tape: Dict[int, str] = {}
        state = self.start_state
        head = 1
        configurations: List[Configuration] = [
            Configuration(state, head, dict(tape))
        ]
        for _ in range(max_steps):
            if state in self.final_states:
                return MachineRun(True, configurations)
            symbol = tape.get(head, BLANK)
            state, written, direction = self.delta[(state, symbol)]
            tape[head] = written
            head = head - 1 if direction == LEFT else head + 1
            if head < 1:
                raise ReproError(
                    "the machine moved off the left end of the tape"
                )
            configurations.append(Configuration(state, head, dict(tape)))
        halted = state in self.final_states
        return MachineRun(halted, configurations)


class Configuration:
    """One machine configuration: state, head position, written cells."""

    __slots__ = ("state", "head", "tape")

    def __init__(self, state: str, head: int, tape: Dict[int, str]):
        self.state = state
        self.head = head
        self.tape = tape

    def symbol_at(self, position: int) -> str:
        return self.tape.get(position, BLANK)

    def __repr__(self) -> str:
        cells = "".join(
            self.symbol_at(i) for i in range(1, max(self.tape, default=1) + 2)
        )
        return f"⟨{self.state}, head={self.head}, tape={cells!r}⟩"


class MachineRun:
    """The result of a bounded simulation."""

    __slots__ = ("halted", "configurations")

    def __init__(self, halted: bool, configurations: List[Configuration]):
        self.halted = halted
        self.configurations = configurations

    @property
    def steps(self) -> int:
        return len(self.configurations) - 1


# ----------------------------------------------------------------------
# Sample machines
# ----------------------------------------------------------------------


def halting_machine(k: int = 3) -> TuringMachine:
    """Writes ``1`` and moves right ``k`` times, then halts."""
    states = [f"q{i}" for i in range(k + 1)] + ["halt"]
    delta: Dict[Tuple[str, str], Transition] = {}
    for index in range(k):
        for symbol in ("1", BLANK):
            delta[(f"q{index}", symbol)] = (f"q{index + 1}", "1", RIGHT)
    for symbol in ("1", BLANK):
        delta[(f"q{k}", symbol)] = ("halt", symbol, RIGHT)
    return TuringMachine(states, ["1"], delta, "q0", ["halt"])


def looping_machine() -> TuringMachine:
    """Moves right forever, never halting."""
    delta: Dict[Tuple[str, str], Transition] = {
        ("run", BLANK): ("run", BLANK, RIGHT),
        ("run", "1"): ("run", "1", RIGHT),
    }
    return TuringMachine(["run", "halt"], ["1"], delta, "run", ["halt"])


def zigzag_machine() -> TuringMachine:
    """Bounces between positions 1 and 2 forever (a bounded-space loop)."""
    delta: Dict[Tuple[str, str], Transition] = {}
    for symbol in ("1", BLANK):
        delta[("a", symbol)] = ("b", "1", RIGHT)
        delta[("b", symbol)] = ("a", "1", LEFT)
    return TuringMachine(["a", "b", "halt"], ["1"], delta, "a", ["halt"])


# ----------------------------------------------------------------------
# The setting D_halt
# ----------------------------------------------------------------------

DELTA_SOURCE = "DeltaS"
Q0_SOURCE = "QZero"


def d_halt_setting() -> DataExchangeSetting:
    """The paper's ``D_halt`` (proof of Theorem 6.2).

    Source: ``DeltaS/5`` (graph of δ), ``QZero/1`` (the start state).
    Target: ``Delta/5``, ``Q/3``, ``I/3``, ``NEXTPOS/3``, ``END/2``,
    ``NEXT/2`` (the t ⊲ t' relation), ``COPYL/3``, ``COPYR/3``.
    """
    sigma = Schema.of(**{DELTA_SOURCE: 5, Q0_SOURCE: 1})
    tau = Schema.of(
        Delta=5, Q=3, I=3, NEXTPOS=3, END=2, NEXT=2, COPYL=3, COPYR=3
    )
    st = [
        f"{DELTA_SOURCE}(q, s, q2, s2, d) -> Delta(q, s, q2, s2, d)",
        f"{Q0_SOURCE}(q) -> Q(0, q, 1) & I(0, 1, '{BLANK}') & "
        f"I(0, 2, '{BLANK}') & NEXTPOS(0, 1, 2) & END(0, 2)",
    ]
    tdeps = [
        # Transition with a left move.
        f"Q(t, q, p) & I(t, p, s) & NEXTPOS(t, p2, p) & "
        f"Delta(q, s, q2, s2, '{LEFT}') -> exists t2 . "
        "NEXT(t, t2) & Q(t2, q2, p2) & I(t2, p, s2) & "
        "COPYL(t, t2, p) & COPYR(t, t2, p)",
        # Transition with a right move.
        f"Q(t, q, p) & I(t, p, s) & NEXTPOS(t, p, p2) & "
        f"Delta(q, s, q2, s2, '{RIGHT}') -> exists t2 . "
        "NEXT(t, t2) & Q(t2, q2, p2) & I(t2, p, s2) & "
        "COPYL(t, t2, p) & COPYR(t, t2, p)",
        # Copy the tape left of the modified cell.
        "COPYL(t, t2, p) & NEXTPOS(t, p2, p) & I(t, p2, s) -> "
        "COPYL(t, t2, p2) & NEXTPOS(t2, p2, p) & I(t2, p2, s)",
        # Copy the tape right of the modified cell.
        "COPYR(t, t2, p) & NEXTPOS(t, p, p2) & I(t, p2, s) -> "
        "COPYR(t, t2, p2) & NEXTPOS(t2, p, p2) & I(t2, p2, s)",
        # Add a new blank cell at the end of the tape.
        "END(t, p) -> exists p2 . "
        f"NEXTPOS(t, p, p2) & I(t, p2, '{BLANK}') & END(t, p2)",
    ]
    return DataExchangeSetting.from_strings(sigma, tau, st, tdeps)


def encode_machine(machine: TuringMachine) -> Instance:
    """``S_M``: the graph of δ plus the start state (proof of Thm 6.2)."""
    sigma = Schema.of(**{DELTA_SOURCE: 5, Q0_SOURCE: 1})
    delta_relation = sigma[DELTA_SOURCE]
    q0_relation = sigma[Q0_SOURCE]
    source = Instance()
    for (state, symbol), (next_state, written, direction) in sorted(
        machine.delta.items()
    ):
        source.add(
            Atom(
                delta_relation,
                (
                    Const(state),
                    Const(symbol),
                    Const(next_state),
                    Const(written),
                    Const(direction),
                ),
            )
        )
    source.add(Atom(q0_relation, (Const(machine.start_state),)))
    return source


# ----------------------------------------------------------------------
# Witness construction for halting machines
# ----------------------------------------------------------------------


def halting_witness(
    machine: TuringMachine, *, max_steps: int = 200
) -> Instance:
    """A finite target instance witnessing a CWA-solution for ``S_M``.

    For a machine that halts within ``max_steps``, build the run grid the
    full version's proof exhibits:

    * times ``0, t₁, ..., t_k`` (0 is the init constant, the rest nulls),
    * positions ``1, 2, p₃, ..., p_m`` (1, 2 constants, the rest nulls),
      where m exceeds every head position reached, plus the complete
      ``Q / I / NEXTPOS / NEXT / COPYL / COPYR`` facts of the run,
    * the tape closed off by a ``NEXTPOS(t, p_m, p_m)`` self-loop with
      ``I(t, p_m, blank)`` and ``END(0, p_m)``, which satisfies the END
      tgd with ``p' = p`` without growing the instance.

    Raises :class:`ReproError` if the machine does not halt in time.
    The returned instance is certified a CWA-presolution for ``S_M`` by
    the recognizer in tests (machine sizes permitting).
    """
    run = machine.run_on_empty(max_steps)
    if not run.halted:
        raise ReproError(
            f"machine did not halt within {max_steps} steps; "
            "no finite witness can be built"
        )
    configurations = run.configurations
    steps = run.steps

    setting = d_halt_setting()
    tau = setting.target_schema
    q_rel, i_rel = tau["Q"], tau["I"]
    nextpos_rel, end_rel = tau["NEXTPOS"], tau["END"]
    next_rel = tau["NEXT"]
    copyl_rel, copyr_rel = tau["COPYL"], tau["COPYR"]
    delta_rel = tau["Delta"]

    # m = last materialized position: strictly beyond every head position
    # and beyond every written cell, and at least 3 so the self-loop cell
    # is never entered by the head.
    highest = 2
    for configuration in configurations:
        highest = max(highest, configuration.head + 1)
        if configuration.tape:
            highest = max(highest, max(configuration.tape) + 1)
    m = highest + 1

    next_null = 0

    def fresh() -> Null:
        nonlocal next_null
        value = Null(next_null)
        next_null += 1
        return value

    times: List[Value] = [Const("0")]
    times.extend(fresh() for _ in range(steps))
    positions: Dict[int, Value] = {1: Const("1"), 2: Const("2")}
    for index in range(3, m + 1):
        positions[index] = fresh()

    target = Instance()
    # Machine table (copied to the target by the first s-t-tgd).
    for (state, symbol), (next_state, written, direction) in sorted(
        machine.delta.items()
    ):
        target.add(
            Atom(
                delta_rel,
                (
                    Const(state),
                    Const(symbol),
                    Const(next_state),
                    Const(written),
                    Const(direction),
                ),
            )
        )

    for step, configuration in enumerate(configurations):
        t = times[step]
        target.add(
            Atom(
                q_rel,
                (t, Const(configuration.state), positions[configuration.head]),
            )
        )
        for index in range(1, m + 1):
            target.add(
                Atom(i_rel, (t, positions[index], Const(configuration.symbol_at(index))))
            )
        for index in range(1, m):
            target.add(
                Atom(nextpos_rel, (t, positions[index], positions[index + 1]))
            )
        # Close the tape: the END tgd is satisfied with p' = p.
        target.add(Atom(nextpos_rel, (t, positions[m], positions[m])))
        if step + 1 < len(times):
            target.add(Atom(next_rel, (t, times[step + 1])))

    # END facts: the initial tape end (position 2) and the whole chain of
    # end-extensions up to the looped cell, at time 0.
    for index in range(2, m + 1):
        target.add(Atom(end_rel, (Const("0"), positions[index])))
    target.add(Atom(end_rel, (Const("0"), positions[m])))

    # COPYL/COPYR facts for each transition: anchored at the written cell
    # and propagated across the whole materialized tape.
    for step in range(steps):
        t, t_next = times[step], times[step + 1]
        written_at = configurations[step].head
        for index in range(1, written_at + 1):
            target.add(Atom(copyl_rel, (t, t_next, positions[index])))
        for index in range(written_at, m + 1):
            target.add(Atom(copyr_rel, (t, t_next, positions[index])))

    return target


# ----------------------------------------------------------------------
# Chase-based simulation checks
# ----------------------------------------------------------------------


def chase_configurations(
    machine: TuringMachine, *, chase_steps: int
) -> List[Tuple[str, Optional[int]]]:
    """Run the standard chase of ``S_M`` (the semi-naive engine) for a
    budget and read off the simulated run: the (state, head-cell index)
    pairs along the NEXT chain.

    The head cell index is resolved against the NEXTPOS chain of the
    corresponding time value when possible (positions are nulls).  Used
    to verify that D_halt simulates the machine.
    """
    from ..chase.seminaive import seminaive_chase

    setting = d_halt_setting()
    source = encode_machine(machine)
    outcome = seminaive_chase(
        source, list(setting.all_dependencies), max_steps=chase_steps
    )
    instance = outcome.instance

    # Follow the NEXT chain from time 0.
    next_atoms = instance.atoms_of("NEXT")
    successor: Dict[Value, Value] = {a.args[0]: a.args[1] for a in next_atoms}
    chain: List[Value] = [Const("0")]
    while chain[-1] in successor and len(chain) <= chase_steps:
        chain.append(successor[chain[-1]])

    readout: List[Tuple[str, Optional[int]]] = []
    for t in chain:
        q_atoms = [a for a in instance.atoms_of("Q") if a.args[0] == t]
        if not q_atoms:
            break
        state = q_atoms[0].args[1]
        head_value = q_atoms[0].args[2]
        position_index = _position_index(instance, t, head_value)
        readout.append((state.name, position_index))
    return readout


def _position_index(
    instance: Instance, time: Value, position: Value
) -> Optional[int]:
    """The 1-based index of ``position`` on time's NEXTPOS chain."""
    pairs = [
        (a.args[1], a.args[2])
        for a in instance.atoms_of("NEXTPOS")
        if a.args[0] == time
    ]
    successor = dict(pairs)
    current: Optional[Value] = Const("1")
    index = 1
    seen: Set[Value] = set()
    while current is not None and current not in seen:
        if current == position:
            return index
        seen.add(current)
        current = successor.get(current)
        index += 1
    return None
