"""Repeated prisoner's dilemma between two fixed strategies.

A game is a geometric number of rounds: after every round another round
is played with probability delta. Each round both players pick C or D,
and the row player collects the entry of the reward vector matching the
joint state. States are ordered CC, CD, DC, DD, where the first letter
is the row player's action.

Every strategy is a reactive rule: one probability of cooperating in
round one, one after the opponent cooperated and one after it defected
(AllC 1, 1, 1; AllD 0, 0, 0; GTFT(g) s1, 1, g). The round chain, its
first round and the Monte Carlo sampler all read these three numbers.

The module provides three independent routes to the expected total
payoff of the row player:

* a solve of the round chain for its discounted visits, by state
  reduction, for every pairing: the one route the package reports,
* a truncated Neumann series over the same chain, kept as the oracle
  of the tests and the benchmark,
* Monte Carlo: each game's visits to CC, CD, DC and DD, sampled from
  their exact law given the game's length. Since each side answers only
  the other's previous action, a game's actions split into two
  independent alternating chains, and no round needs to be played.

Tests hold the three to agreement wherever they overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .ehrenfest import _check_count, _check_generosity, _check_tol, _real
from .rng import ensure_rng

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
        for name, value in vars(self).items():
            if not math.isfinite(_real(value)):
                raise ValueError(f"reward {name} must be finite, got {value}")
        if not (self.T > self.R > self.P > self.S):
            raise ValueError(
                f"reward vector must satisfy T > R > P > S, got "
                f"T={self.T}, R={self.R}, P={self.P}, S={self.S}"
            )

    @classmethod
    def donation(cls, benefit: float, cost: float) -> "RewardVector":
        """Donation game: cooperation pays `benefit` to the other side at `cost` to self."""
        if not _real(benefit) > _real(cost) > 0:
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
        tol = 1e-12 * self.max_abs  # rounding at the scale of the payoffs
        ok = abs(self.P) <= tol and abs(self.R - (self.T + self.S)) <= tol and benefit > cost > 0
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
        if not 0.0 <= _real(self.delta) < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not 0.0 <= _real(self.s1) < 1.0:
            raise ValueError(f"s1 must be in [0, 1), got {self.s1}")
        _check_generosity("g_hat", self.g_hat)


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
        _check_generosity("generosity", self.g)

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
    else:
        _check_generosity("generosity", player)
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
    _check_tol(tol)
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


# games per block of simulate_games: its temporaries stay a few hundred kB
_BLOCK = 8192


def _coin(p: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` flips that land True with probability ``p``; a sure flip takes no draw."""
    if p == 0.0 or p == 1.0:
        return np.full(n, p == 1.0)
    return rng.random(n) < p


def _hit_rounds(first: float, d1: float, d2: float, rounds: np.ndarray, rng) -> np.ndarray:
    """Round from which one alternating chain plays C for good, capped at R + 1.

    The chain plays C in round one with probability ``first``. Its later
    steps come in pairs, (2, 3), (4, 5), ...: after a D the first step of
    a pair plays C with probability ``d1`` and the second with ``d2``, and
    after a C every step plays C. The pairs that fail before the first C
    number floor(E / -log((1 - d1)(1 - d2))) for a standard exponential
    E, and one more flip says which step of the next pair plays C.
    """
    n = rounds.size
    if first == 1.0:
        return np.ones(n, dtype=np.int64)
    at_once = _coin(first, n, rng)
    if d1 == d2 == 0.0:
        later = rounds + 1
    else:
        if d1 == 1.0 or d2 == 1.0:
            failed = 0
        else:
            rate = -(math.log1p(-d1) + math.log1p(-d2))
            # 2**61 pairs outlast R unless numpy's geometric draw passes 2**62
            # rounds, which at delta < 1 has probability below e**-512
            with np.errstate(over="ignore"):
                failed = np.minimum(rng.standard_exponential(n) / rate, 2.0**61).astype(np.int64)
        second = ~_coin(d1 / (d1 + (1.0 - d1) * d2), n, rng)
        later = np.minimum(2 * failed + 2 + second, rounds + 1)
    return np.where(at_once, 1, later)


def _state_counts(me_rule: tuple, opp_rule: tuple, rounds: np.ndarray, rng) -> np.ndarray:
    """Visits to CC, CD, DC, DD in games of ``rounds`` rounds, as a (4, n) int64 array.

    Each side answers only the other's previous action, so the actions
    split into two independent chains, A = (X1, Y2, X3, ...) and
    B = (Y1, X2, Y3, ...), X the row player's and Y the column player's.
    Every rule answers C with C for sure or never (`_coop`: AllD never).
    Without AllD, C absorbs both chains: rounds before the first hit are
    DD, rounds from the last on are CC, and the rounds between alternate,
    CD in odd rounds when A hit first. With AllD, its side defects in
    every round, and the other side answers D alone: its round-one flip
    and one binomial count over rounds 2..R.
    """
    (me_first, me_c, me_d), (opp_first, opp_c, opp_d) = me_rule, opp_rule
    if me_c == opp_c == 1.0:
        # A steps: X1, then pairs (Y, X); B steps: Y1, then pairs (X, Y)
        hit_a = _hit_rounds(me_first, opp_d, me_d, rounds, rng)
        hit_b = _hit_rounds(opp_first, me_d, opp_d, rounds, rng)
        lo, hi = np.minimum(hit_a, hit_b), np.maximum(hit_a, hit_b)
        odd = hi // 2 - lo // 2
        cd = np.where(hit_a < hit_b, odd, hi - lo - odd)
        return np.stack([rounds + 1 - hi, cd, hi - lo - cd, lo - 1])
    free_first, _, free_d = opp_rule if me_c == 0.0 else me_rule
    free = _coin(free_first, rounds.size, rng) + rng.binomial(rounds - 1, free_d)
    none = np.zeros_like(rounds)
    cd, dc = (none, free) if me_c == 0.0 else (free, none)
    return np.stack([none, cd, dc, rounds - free])


def simulate_games(
    me: Strategy,
    opp: Strategy,
    cfg: GameConfig,
    rv: RewardVector,
    n_games: int,
    rng: np.random.Generator | int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``n_games`` independent full games; return (row payoffs, column payoffs, rounds).

    Every game's round count R ~ Geometric(1 - delta) is drawn first, in
    game order. Then each block of games draws its visits to CC, CD, DC
    and DD from their exact law given R (`_state_counts`), from the two
    alternating chains the actions split into, so no round is played:
    the work is O(1) per game however long the game, and the counts are
    exact int64s summing to R. The payoffs are the counts times the
    reward vector, with CD and DC swapped for the column player.

    Raises ValueError for a negative or non-integral ``n_games``.
    """
    _check_count("n_games", n_games, 0)
    rng = ensure_rng(rng)
    v = rv.as_array()
    table = np.array([v, v[_SWAP]])
    rounds = rng.geometric(1.0 - cfg.delta, n_games)
    me_rule, opp_rule = _coop(me, cfg.s1), _coop(opp, cfg.s1)
    pay = np.empty((2, n_games))
    for lo in range(0, n_games, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        pay[:, block] = table @ _state_counts(me_rule, opp_rule, rounds[block], rng)
    return pay[0], pay[1], rounds
