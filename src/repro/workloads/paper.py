"""Every example program that appears in the paper.

Each function returns a freshly parsed AST (ASTs carry identity, so
shared instances across tests would confuse per-node tables).

A note on Figure 3.  The scanned figure reads::

    begin
      m := 0;
      if x # 0 then begin signal(modify); wait(modified) end;
      signal(read);
      wait(done);
      if x = 0 then begin signal(modify); wait(modified) end;
      wait(done)            -- (!)
    end
    || begin wait(modify); m := 1; signal(modified) end
    || begin wait(read); y := m; signal(done) end

As printed, ``done`` is signalled once but waited twice, so the program
*always* deadlocks — contradicting the paper's own claims that "the
program of Figure 3 cannot deadlock" and that "the final values of the
semaphores are the same as their initial values", and its stated
sequential equivalent ``if x = 0 then begin m := 1; y := m end else
begin y := m; m := 1 end`` (i.e. ``y`` ends up 1 exactly when ``x`` is
0).  We therefore reconstruct the figure consistently with the prose:
the trailing ``wait(done)`` is dropped (it is almost certainly a scan
artifact) and the first guard tests ``x = 0`` so that ``m := 1``
precedes ``y := m`` exactly when ``x`` is zero.  All of the paper's
claims — deadlock freedom under every schedule, semaphores restored,
``y = (1 if x = 0 else 0)``, and the CFM certification chain
``sbind(x) <= sbind(modify) <= sbind(m) <= sbind(y)`` — hold of the
reconstruction and are verified in the test suite and benchmarks.
"""

from __future__ import annotations

from typing import Dict

from repro.lang.ast import Program, Stmt
from repro.lang.parser import parse_program, parse_statement

#: The reconstructed Figure 3 (see module docstring).
FIGURE3_SOURCE = """\
var x, y, m : integer;
    modify, modified, read, done : semaphore initially(0);
cobegin
  begin
    m := 0;
    if x = 0
    then begin signal(modify); wait(modified) end;
    signal(read);
    wait(done);
    if x # 0
    then begin signal(modify); wait(modified) end
  end
||
  begin wait(modify); m := 1; signal(modified) end
||
  begin wait(read); y := m; signal(done) end
coend
"""

#: Variable names of Figure 3 (integers first, then semaphores).
FIGURE3_VARIABLES = ("x", "y", "m", "modify", "modified", "read", "done")


def figure3_program() -> Program:
    """The paper's Figure 3: information flow using synchronization."""
    return parse_program(FIGURE3_SOURCE)


def figure3_sequential_equivalent() -> Program:
    """The sequential program the paper states Figure 3 is equivalent to
    (section 4.3), for x and y."""
    return parse_program(
        """
        var x, y, m : integer;
        begin
          m := 0;
          if x = 0
          then begin m := 1; y := m end
          else begin y := m; m := 1 end
        end
        """
    )


def figure3_looped(bits: int = 8) -> Program:
    """The paper's closing remark on Figure 3, made concrete.

    "By placing each process in a loop and testing a different bit of x
    on each iteration an arbitrary amount of information could be
    transmitted."  This wraps each Figure 3 process in a loop over
    ``bits`` iterations; process one tests bit ``i`` of ``x`` (via
    division and mod, the language having no bit operators) and the
    third process accumulates the received bits into ``y``.  After a
    run, ``y`` equals ``x mod 2**bits``: a complete covert byte pipe
    built from semaphores.
    """
    if bits < 1:
        raise ValueError("need at least one bit")
    return parse_program(
        f"""
        var x, y, m, i, j, k, pow : integer;
            modify, modified, read, done : semaphore initially(0);
        begin
          y := 0;
          i := 0;
          pow := {2 ** (bits - 1)};
          cobegin
            begin
              -- sender: walks the bits of x, most significant first
              while i < {bits} do
              begin
                m := 0;
                if (x / pow) mod 2 = 1
                then begin signal(modify); wait(modified) end;
                signal(read);
                wait(done);
                if (x / pow) mod 2 = 0
                then begin signal(modify); wait(modified) end;
                pow := pow / 2;
                i := i + 1
              end
            end
          ||
            begin
              -- helper: sets m on demand, once per transmitted bit
              j := 0;
              while j < {bits} do
              begin
                wait(modify);
                m := 1;
                signal(modified);
                j := j + 1
              end
            end
          ||
            begin
              -- receiver: shifts each observed bit into y
              k := 0;
              while k < {bits} do
              begin
                wait(read);
                y := y * 2 + m;
                signal(done);
                k := k + 1
              end
            end
          coend
        end
        """
    )


def section22_if_fragment() -> Stmt:
    """Section 2.2's local indirect flow: ``if x = 0 then y := 1 else y := 0``."""
    return parse_statement("if x = 0 then y := 1 else y := 0")


def section22_while_fragment() -> Stmt:
    """Section 2.2's global flow from conditional termination::

        begin z := 0; while x # 0 do y := ...; z := 1 end

    ``z`` is set to 1 iff the loop terminates, i.e. iff ``x`` is zero.
    (The paper elides the loop body; any assignment to ``y`` serves.)
    """
    return parse_statement(
        "begin z := 0; while x # 0 do y := y + 1; z := 1 end"
    )


def section22_cobegin_fragment() -> Stmt:
    """Section 2.2's synchronization flow::

        cobegin if x = 0 then signal(sem)
        || begin wait(sem); y := 0 end coend

    Transmits x to y; deadlocks exactly when x is non-zero — the paper
    uses it to note that global flows come from synchronization, not
    from the possibility of deadlock.
    """
    return parse_statement(
        """
        cobegin
          if x = 0 then signal(sem)
        ||
          begin wait(sem); y := 0 end
        coend
        """
    )


def section42_loop() -> Stmt:
    """Section 4.2's iteration example::

        while true do begin y := y + 1; wait(sem) end

    ``y`` is incremented more than once only if the wait completes, so
    CFM requires ``sbind(sem) <= sbind(y)``.
    """
    return parse_statement("while true do begin y := y + 1; wait(sem) end")


def section42_composition() -> Stmt:
    """Section 4.2's composition example: ``begin wait(sem); y := 1 end``,
    certifiable only if ``sbind(sem) <= sbind(y)``."""
    return parse_statement("begin wait(sem); y := 1 end")


def section52_program() -> Stmt:
    """Section 5.2's relative-strength example: ``begin x := 0; y := x end``.

    Safe for ``x = high, y = low`` (the value assigned to ``y`` is the
    constant 0) and provably so in the flow logic, yet rejected by CFM.
    """
    return parse_statement("begin x := 0; y := x end")


def paper_programs() -> Dict[str, Stmt]:
    """All paper fragments by name (statements; Figure 3 as its body)."""
    return {
        "figure3": figure3_program().body,
        "figure3-sequential": figure3_sequential_equivalent().body,
        "s22-if": section22_if_fragment(),
        "s22-while": section22_while_fragment(),
        "s22-cobegin": section22_cobegin_fragment(),
        "s42-loop": section42_loop(),
        "s42-composition": section42_composition(),
        "s52-begin": section52_program(),
    }
