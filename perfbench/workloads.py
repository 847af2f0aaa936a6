"""The benchmark's inputs: program sets, generators and seeded orders.

Nothing here imports :mod:`repro`; the bundled programs are named, and
the processes that verify them resolve the names to sources.

The cold workloads verify their programs in the order listed here in
every pass, whatever the seed: the corpus is the paper's and the
generators have fixed parameters, and a pass's peak memory depends on
the order (a corpus pass peaked at 279, 295 or 315 MB depending on
it), which would make ``peak_rss_mb`` vary with the seed rather than
with the code; ``serve-warm`` fills its cache in a fixed order for the
same reason.  It draws the order of its timed requests and its think
times from ``random.Random`` seeded with ``--seed``, so one seed
always gives one input.
"""

import random

#: The paper's six §6 table programs, then its two §5 failing ones.
CORPUS = ("reverse", "rotate", "insert", "delete", "search", "zip",
          "fumble", "swap")

#: The paper's answers (§5-§6): the table programs verify, the two
#: "likely mistakes" fail.
CORPUS_VERDICTS = {"reverse": True, "rotate": True, "insert": True,
                   "delete": True, "search": True, "zip": True,
                   "fumble": False, "swap": False}

#: Symbols in the shortest counterexample of each failing program
#: (§5: fumble's one-cell cycle, swap's singleton-list nil deref).
COUNTEREXAMPLE_LENGTHS = {"fumble": 4, "swap": 3}

#: Generator parameters of ``scaling-cold`` (paper §6, complexity).
CHAIN_MOVES = 5
ZIP_COLOURS = 6

#: ``serve-warm``'s request mix: bundled programs sent as sources.
#: Programs with one to three subgoals whose cold verification takes
#: under two seconds each, so that the set-up fill stays short and a
#: run's time goes to warm requests; answered from the cache, a
#: program's cost depends on its subgoals and annotations, not on its
#: automata.  ``split`` could not be filled at all: cold, it needs over
#: a minute, above the daemon's default 60 s request cap.
SERVE_MIX = ("reverse", "search", "searchwf", "fumble", "swap",
             "swapfix", "triple", "append", "scan")

SERVE_VERDICTS = {"reverse": True, "search": True, "searchwf": True,
                  "fumble": False, "swap": False, "swapfix": True,
                  "triple": True, "append": True, "scan": True}

#: ``serve-warm``'s client waits a think time drawn uniformly from
#: ``[0, THINK_SECONDS)`` before each request, so that requests arrive
#: at every phase of the daemon's 50 ms dispatcher poll.  Without it
#: the median latency sits on the edge between requests a worker
#: heartbeat happens to dispatch early and those that wait out the
#: poll, and moves between the two from run to run.
THINK_SECONDS = 0.05


def chain_source(moves: int) -> str:
    """``moves`` pointer moves along ``x``; the precondition makes the
    path defined through a quantified cell (a bare ``<> nil`` would be
    vacuously true on an undefined path).  Verifies by construction:
    each move stays on the list, so ``p`` ends ``moves`` cells in."""
    steps = ";\n".join(["  p := x"] + ["  p := p^.next"] * moves)
    path = "x" + "^.next" * moves
    return f"""\
program chain{moves};
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
{{data}} var x: List;
{{pointer}} var p: List;
begin
  {{ex c: {path} = c}}
{steps}
  {{x<next+>p}}
end.
"""


def coloured_zip_source(colours: int) -> str:
    """The paper's ``zip`` over a list type with ``colours`` variants.
    The program never tests a variant, so its verdict is ``zip``'s:
    it verifies."""
    names = ", ".join(f"c{i}" for i in range(colours))
    return f"""\
program zip{colours};
type
  Color = ({names});
  List = ^Item;
  Item = record case tag: Color of {names}: (next: List) end;
{{data}} var x, y, z: List;
{{pointer}} var p, t: List;
begin
  {{z = nil}}
  if x = nil then begin t := x; x := y; y := t end;
  p := nil;
  while x <> nil do
    {{(x = nil => y = nil) & z<next*>p & (z <> nil => p^.next = nil)}}
    begin
      if z = nil then begin
        z := x;
        p := x
      end else begin
        p^.next := x;
        p := p^.next
      end;
      x := x^.next;
      p^.next := nil;
      if y <> nil then begin t := x; x := y; y := t end
    end
  {{x = nil & y = nil}}
end.
"""


#: ``scaling-cold``'s programs, by the name they are reported under.
SCALING = ("chain5", "zip6")

SCALING_VERDICTS = {"chain5": True, "zip6": True}


def generated_source(name: str) -> str:
    """The source of one ``scaling-cold`` program."""
    if name == "chain5":
        return chain_source(CHAIN_MOVES)
    if name == "zip6":
        return coloured_zip_source(ZIP_COLOURS)
    raise KeyError(name)


def known_verdicts(workload: str) -> dict:
    return {"corpus-cold": CORPUS_VERDICTS,
            "scaling-cold": SCALING_VERDICTS,
            "serve-warm": SERVE_VERDICTS}[workload]


def programs(workload: str) -> tuple:
    return {"corpus-cold": CORPUS, "scaling-cold": SCALING,
            "serve-warm": SERVE_MIX}[workload]


class Requests:
    """``serve-warm``'s seeded inputs: the order of the mix in each
    cycle, and the think time before each request.  The set-up fill
    sends the mix in its own order whatever the seed, so that the
    cold work, and with it the daemon's peak memory, is the same in
    every run."""

    def __init__(self, seed: int) -> None:
        self._order = random.Random(f"serve-warm:{seed}")
        self._think = random.Random(f"serve-warm:think:{seed}")

    def next_cycle(self) -> list:
        return self._order.sample(SERVE_MIX, len(SERVE_MIX))

    def next_think(self) -> float:
        """Seconds the client waits before its next request."""
        return self._think.uniform(0.0, THINK_SECONDS)
