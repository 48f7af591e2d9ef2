"""Repeated prisoner's dilemma between two fixed strategies.

A game is a geometric number of rounds: after every round another round
is played with probability delta. Each round both players pick C or D,
and the row player collects the entry of the reward vector matching the
joint state. States are ordered CC, CD, DC, DD, where the first letter
is the row player's action.

Every strategy is a reactive rule: one probability of cooperating in
round one, one after the opponent cooperated and one after it defected
(AllC 1, 1, 1; AllD 0, 0, 0; GTFT(g) s1, 1, g). The round chain, its
first round and the simulation all read these three numbers.

The module provides three independent routes to the expected total
payoff of the row player:

* a solve of the round chain for its discounted visits, by state
  reduction, for every pairing,
* a truncated Neumann series over the same chain,
* Monte Carlo simulation of whole games.

Tests hold the three to agreement wherever they overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .rng import ensure_rng

STATES = ("CC", "CD", "DC", "DD")

# Payoff of the column player in state s equals the row payoff in the
# state with the roles swapped: CC->CC, CD->DC, DC->CD, DD->DD.
_SWAP = np.array([0, 2, 1, 3])


@dataclass(frozen=True)
class RewardVector:
    """Single-round payoffs (R, S, T, P) of the row player over CC, CD, DC, DD."""

    R: float
    S: float
    T: float
    P: float

    def __post_init__(self) -> None:
        if not (self.T > self.R > self.P > self.S):
            raise ValueError(
                f"reward vector must satisfy T > R > P > S, got "
                f"T={self.T}, R={self.R}, P={self.P}, S={self.S}"
            )

    @classmethod
    def donation(cls, benefit: float, cost: float) -> "RewardVector":
        """Donation game: cooperation pays `benefit` to the other side at `cost` to self."""
        if not benefit > cost > 0:
            raise ValueError(f"donation game needs benefit > cost > 0, got {benefit}, {cost}")
        return cls(R=benefit - cost, S=-cost, T=benefit, P=0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.R, self.S, self.T, self.P], dtype=float)

    @property
    def max_abs(self) -> float:
        return max(abs(self.R), abs(self.S), abs(self.T), abs(self.P))

    def donation_params(self) -> tuple[float, float]:
        """Recover (benefit, cost), or raise if this is not a donation vector."""
        benefit, cost = self.T, -self.S
        ok = (
            abs(self.P) <= 1e-12
            and abs(self.R - (self.T + self.S)) <= 1e-12
            and benefit > cost > 0
        )
        if not ok:
            raise ValueError(f"not a donation-game reward vector: {self}")
        return benefit, cost


@dataclass(frozen=True)
class GameConfig:
    """Game-level parameters shared by every pairing.

    delta: probability of playing another round after each round.
    s1:    probability a GTFT player cooperates in round one.
    g_hat: largest generosity any GTFT player may use.
    """

    delta: float
    s1: float = 0.5
    g_hat: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not 0.0 <= self.s1 < 1.0:
            raise ValueError(f"s1 must be in [0, 1), got {self.s1}")
        if not 0.0 <= self.g_hat <= 1.0:
            raise ValueError(f"g_hat must be in [0, 1], got {self.g_hat}")


@dataclass(frozen=True)
class Strategy:
    """One of the three strategy kinds: 'allc', 'alld', or 'gtft' with generosity g.

    A GTFT player cooperates in round one with probability s1; in later
    rounds it cooperates with probability g and otherwise repeats the
    opponent's previous action.
    """

    kind: str
    g: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("allc", "alld", "gtft"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(f"generosity must be in [0, 1], got {self.g}")

    @property
    def is_gtft(self) -> bool:
        return self.kind == "gtft"

    def __str__(self) -> str:
        return f"gtft({self.g})" if self.is_gtft else self.kind


ALLC = Strategy("allc")
ALLD = Strategy("alld")


def gtft(g: float) -> Strategy:
    return Strategy("gtft", g)


def _coop(player, s1: float) -> tuple:
    """Cooperation probabilities in round one, after the opponent cooperated, after it defected.

    ``player`` is a Strategy, or the generosity g of a GTFT player as a
    float or an array. ``s1`` is a GTFT player's round-one probability
    (``GameConfig.s1``).
    """
    if isinstance(player, Strategy):
        if player.kind == "allc":
            return 1.0, 1.0, 1.0
        if player.kind == "alld":
            return 0.0, 0.0, 0.0
        player = player.g
    elif not np.all((0.0 <= player) & (player <= 1.0)):
        raise ValueError(f"generosity must be in [0, 1], got {player}")
    return s1, player + (1.0 - player), player


def _joint(p_me, p_opp) -> tuple:
    """Probabilities of CC, CD, DC, DD for independent draws; floats or broadcast arrays."""
    return p_me * p_opp, p_me * (1 - p_opp), (1 - p_me) * p_opp, (1 - p_me) * (1 - p_opp)


def _answers(me: tuple, opp: tuple) -> tuple[tuple, tuple]:
    """Each side's cooperation probability after a round in state CC, CD, DC, DD.

    ``me`` and ``opp`` are `_coop` triples. Each side answers the other's
    previous action, so the round-one entry plays no part.
    """
    _, me_c, me_d = me
    _, opp_c, opp_d = opp
    return (me_c, me_d, me_c, me_d), (opp_c, opp_c, opp_d, opp_d)


def transition_matrix(me: Strategy, opp: Strategy) -> np.ndarray:
    """4x4 row-stochastic matrix over CC, CD, DC, DD, conditioned on another round."""
    return np.array([_joint(a, b) for a, b in zip(*_answers(_coop(me, 0.0), _coop(opp, 0.0)))])


def initial_distribution(me: Strategy, opp: Strategy, cfg: GameConfig) -> np.ndarray:
    """Round-one distribution over CC, CD, DC, DD."""
    return np.array(_joint(_coop(me, cfg.s1)[0], _coop(opp, cfg.s1)[0]))


def series_truncation_index(delta: float, max_abs_payoff: float, tol: float) -> int:
    """Smallest I with tail bound max|v| * delta^I / (1 - delta) <= tol."""
    if delta == 0.0 or max_abs_payoff == 0.0:
        return 1
    ratio = tol * (1.0 - delta) / max_abs_payoff
    if ratio >= 1.0:
        return 1
    return max(1, math.ceil(math.log(ratio) / math.log(delta)))


def expected_payoff_series(
    me: Strategy, opp: Strategy, cfg: GameConfig, rv: RewardVector, tol: float = 1e-10
) -> float:
    """Expected row payoff as the truncated sum over rounds of <v, q1 (delta M)^(i-1)>.

    The tail after I terms is bounded by max|v| * delta^I / (1 - delta),
    so the truncation error is at most ``tol``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    v = rv.as_array()
    q = initial_distribution(me, opp, cfg)
    m = transition_matrix(me, opp)
    n_terms = series_truncation_index(cfg.delta, rv.max_abs, tol)
    total = float(q @ v)
    for _ in range(n_terms - 1):
        q = cfg.delta * (q @ m)
        total += float(q @ v)
    return total


def _discounted_visits(q, rows, delta) -> list:
    """Discounted visits q (I - delta M)^-1 to CC, CD, DC, DD, by state reduction.

    ``q`` and the rows of M are floats or broadcast arrays. A state 0 goes
    in front: each round moves to it with probability 1 - delta, and it
    moves on by q. The visits are the stationary weights of that chain
    over the weight of state 0, which the reduction of Grassmann, Taksar
    & Heyman (Oper. Res. 33, 1985) finds by removing DD, DC, CD, CC in
    turn. A state's escape, one minus its self-loop, is the sum of its
    moves to the states left, so nothing is subtracted, and every visit
    keeps its relative precision at any delta < 1 (O'Cinneide, Numer.
    Math. 65, 1993).
    """
    move = [[None, *q]] + [[1.0 - delta, *(delta * p for p in row)] for row in rows]
    escape = [None] * len(move)
    for k in reversed(range(1, len(move))):
        escape[k] = reduce(add, move[k][:k])
        for i in range(k):
            share = move[i][k] / escape[k]
            for j in range(k):
                if j != i:
                    move[i][j] = move[i][j] + share * move[k][j]
    visits = [1.0]
    for k in range(1, len(move)):
        visits.append(reduce(add, [visits[i] * move[i][k] for i in range(k)]) / escape[k])
    return visits[1:]


def expected_payoff_closed(me, opp, cfg: GameConfig, rv: RewardVector):
    """Expected row payoff R O_CC + S O_CD + T O_DC + P O_DD from the discounted visits O.

    ``me`` and ``opp`` are strategies, or GTFT generosities that may be
    arrays; the result broadcasts over them and is a float for scalars.
    Sums use ``reduce(add, ...)``: from Python 3.12 the builtin ``sum``
    compensates on floats but not on arrays, so a float and an array
    input would round apart.
    """
    me_rule, opp_rule = _coop(me, cfg.s1), _coop(opp, cfg.s1)
    q = _joint(me_rule[0], opp_rule[0])
    rows = [_joint(a, b) for a, b in zip(*_answers(me_rule, opp_rule))]
    visits = _discounted_visits(q, rows, cfg.delta)
    out = reduce(add, [v * o for v, o in zip((rv.R, rv.S, rv.T, rv.P), visits)])
    return out if np.ndim(out) else float(out)


def simulate_games(
    me: Strategy,
    opp: Strategy,
    cfg: GameConfig,
    rv: RewardVector,
    n_games: int,
    rng: np.random.Generator | int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play ``n_games`` independent full games; return (row payoffs, column payoffs, rounds).

    Length first. Every game's round count R ~ Geometric(1 - delta) is
    drawn up front, in game order. The games are then ordered by R,
    longest first and ties in game order, so the games still playing
    round r are a prefix of that order. Each round draws the row player's
    actions over the prefix, then the column player's, and adds both
    payoffs into prefix slices; one scatter at the end puts the payoffs
    back in game order. Memory is O(n_games), however long the longest game.

    Raises ValueError for a negative or non-integral ``n_games``, and for a
    game too long for R to share an int64 sort key with the game index
    (about 2**63 / n_games rounds, more than any run could play).
    """
    if not (isinstance(n_games, (int, np.integer)) and n_games >= 0):
        raise ValueError(f"n_games must be a non-negative integer, got {n_games!r}")
    rng = ensure_rng(rng)
    v = rv.as_array()
    v_col = v[_SWAP]
    rounds = rng.geometric(1.0 - cfg.delta, n_games)
    # -R in the high bits and the game index in the low ones: the keys are
    # unique, so the order does not depend on the sort algorithm numpy picks
    bits = int(max(n_games - 1, 1)).bit_length()
    if n_games and rounds.max() >= 1 << (63 - bits):
        raise ValueError(f"a game of {rounds.max()} rounds is too long to simulate")
    key = np.arange(n_games) - (rounds << bits)
    key.sort()
    pay_me = np.zeros(n_games)
    pay_opp = np.zeros(n_games)
    me_rule, opp_rule = _coop(me, cfg.s1), _coop(opp, cfg.s1)
    p_me, p_opp = me_rule[0], opp_rule[0]
    me_next, opp_next = map(np.array, _answers(me_rule, opp_rule))
    live, r = n_games, 1
    while live:
        state = 2 * (rng.random(live) >= p_me)
        state += rng.random(live) >= p_opp
        pay_me[:live] += v[state]
        pay_opp[:live] += v_col[state]
        r += 1
        # the games with R >= r are the keys below (1 - r) << bits
        live = int(np.searchsorted(key, (1 - r) << bits))
        p_me = me_next[state[:live]]
        p_opp = opp_next[state[:live]]
    order = key & ((1 << bits) - 1)
    out_me = np.empty(n_games)
    out_opp = np.empty(n_games)
    out_me[order] = pay_me
    out_opp[order] = pay_opp
    return out_me, out_opp, rounds
