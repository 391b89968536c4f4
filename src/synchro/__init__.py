"""Short reset words for deterministic finite automata: a cutoff inverse-BFS
heuristic, Eppstein's greedy baseline, an exact oracle, generators, and a
benchmark harness."""

from .automaton import (
    Automaton,
    AutomatonFormatError,
    Word,
    cerny,
    indegree_permutation,
    parse_automaton,
    random_automaton,
    serialize_automaton,
    start_set,
)
from .baselines import eppstein_greedy, exact_shortest
from .results import InstanceTooLarge, NotSynchronizing, SearchResult
from .search import (
    UNBOUNDED,
    cutoff_ibfs,
    log_cap,
    synchronize,
)

__all__ = [
    "Automaton",
    "AutomatonFormatError",
    "Word",
    "cerny",
    "indegree_permutation",
    "parse_automaton",
    "random_automaton",
    "serialize_automaton",
    "start_set",
    "eppstein_greedy",
    "exact_shortest",
    "InstanceTooLarge",
    "NotSynchronizing",
    "SearchResult",
    "UNBOUNDED",
    "cutoff_ibfs",
    "log_cap",
    "synchronize",
]

__version__ = "0.1.0"
