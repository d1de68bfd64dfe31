"""Simulation of stationary finite-state hidden Markov models.

Covers the emission families used throughout the experiments: the
state-shift model with exchangeable noise (Gaussian, Student t3,
Laplace, Exponential), Beta emissions on [0, 1], Gaussian location
emissions on R, and von Mises emissions on the circle.

The chain is walked in blocks of ``_WALK_BLOCK`` steps: each block is
walked from every state at once by vectorised gathers, and a short
Python loop chains the block end states from the true start.  The
states, the uniforms that drive them and the emission draw order are
those of a walk one step at a time.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .series import CIRCULAR, LINEAR, TWO_PI, ObservedSeries

GAUSSIAN_NOISE = "gaussian"
STUDENT3_NOISE = "student3"
LAPLACE_NOISE = "laplace"
EXPONENTIAL_NOISE = "exponential"

NOISE_FAMILIES = (GAUSSIAN_NOISE, STUDENT3_NOISE, LAPLACE_NOISE, EXPONENTIAL_NOISE)

#: the noise family each named shift scenario fixes
SHIFT_SCENARIOS = {
    "gauss-shift": GAUSSIAN_NOISE,
    "student-shift": STUDENT3_NOISE,
    "laplace-shift": LAPLACE_NOISE,
    "exp-shift": EXPONENTIAL_NOISE,
}


@dataclass(frozen=True)
class ShiftNoise:
    """Location shift plus unit-scale noise.

    The Exponential noise is used as drawn (rate 1, support [0, inf)),
    not recentred; Student noise is the plain t with 3 degrees of
    freedom.
    """

    shift: float
    noise: str = GAUSSIAN_NOISE

    def __post_init__(self):
        if self.noise not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.noise!r}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.noise == GAUSSIAN_NOISE:
            eps = rng.standard_normal(size)
        elif self.noise == STUDENT3_NOISE:
            eps = rng.standard_t(3, size)
        elif self.noise == LAPLACE_NOISE:
            eps = rng.laplace(0.0, 1.0, size)
        else:
            eps = rng.exponential(1.0, size)
        return self.shift + eps


@dataclass(frozen=True)
class Beta:
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("Beta parameters must be positive")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.beta(self.a, self.b, size)


@dataclass(frozen=True)
class GaussianLoc:
    mean: float
    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(size)


@dataclass(frozen=True)
class VonMisesLoc:
    mean: float
    concentration: float

    def __post_init__(self):
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.mod(rng.vonmises(self.mean, self.concentration, size), TWO_PI)


@dataclass(frozen=True, eq=False)
class HmmSpec:
    """A stationary HMM: transition matrix, stationary law, emissions."""

    transition: np.ndarray
    stationary: np.ndarray
    emissions: tuple
    dim: int = 1
    kind: str = LINEAR

    def __post_init__(self):
        a = np.asarray(self.transition, dtype=float)
        pi = np.asarray(self.stationary, dtype=float)
        ell = a.shape[0]
        if a.shape != (ell, ell):
            raise ValueError("transition matrix must be square")
        if len(self.emissions) != ell:
            raise ValueError("need one emission per state")
        if np.any(a < 0) or np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must be nonnegative and sum to 1")
        if abs(pi.sum() - 1.0) > 1e-10 or np.any(pi < 0):
            raise ValueError("stationary vector must be a distribution")
        if np.max(np.abs(pi @ a - pi)) > 1e-10:
            raise ValueError("stationary vector does not satisfy pi A = pi")
        if abs(np.linalg.det(a)) <= 1e-10:
            warnings.warn(
                "transition matrix is numerically rank deficient; "
                "the order is not identifiable from pair distributions",
                stacklevel=2,
            )
        object.__setattr__(self, "transition", a)
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def from_transition(cls, transition, emissions, dim: int = 1, kind: str = LINEAR):
        a = np.asarray(transition, dtype=float)
        return cls(
            transition=a,
            stationary=stationary_distribution(a),
            emissions=tuple(emissions),
            dim=dim,
            kind=kind,
        )


def make_transition_nu(nu: float) -> np.ndarray:
    """Three-state symmetric transition matrix with off-diagonal rate
    ``nu`` and diagonal 1 - 2*nu.

    At nu = 0 all states are absorbing and at nu = 1/3 the matrix is
    singular (the chain becomes an iid sequence); both make the order
    unidentifiable, so the first is refused and the second warns.
    """
    if not 0.0 < nu < 0.5:
        raise ValueError(f"nu must lie in (0, 0.5) for 3 states, got {nu}")
    if abs(nu - 1.0 / 3) < 1e-12:
        warnings.warn(
            "nu = 1/3 makes the transition matrix singular; the model is not identifiable",
            stacklevel=2,
        )
    a = np.full((3, 3), nu)
    np.fill_diagonal(a, 1.0 - 2 * nu)
    return a


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Solve pi A = pi with sum(pi) = 1 for an irreducible chain."""
    a = np.asarray(transition, dtype=float)
    ell = a.shape[0]
    # after m squarings reach[i, j] says that j is reachable from i in
    # at most 2^m steps; ell - 1 steps reach every reachable state
    reach = (a > 0) | np.eye(ell, dtype=bool)
    for _ in range((ell - 1).bit_length()):
        reach = reach @ reach
    if not reach.all():
        raise ValueError("transition matrix is reducible")
    system = np.vstack([a.T - np.eye(ell), np.ones(ell)])
    rhs = np.zeros(ell + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    resid = np.max(np.abs(pi @ a - pi))
    if resid > 1e-12:
        raise np.linalg.LinAlgError(
            f"stationary distribution residual {resid:.3e} exceeds 1e-12"
        )
    return pi


#: steps per block of the chain walk in ``_walk``
_WALK_BLOCK = 64


def _walk(cum: np.ndarray, u: np.ndarray, start: int) -> np.ndarray:
    """States of the chain with cumulative transition rows ``cum``:
    ``states[0] = start`` and ``states[t] = searchsorted(cum[states[t-1]], u[t])``.

    The steps are cut into blocks of ``_WALK_BLOCK``.  Every block is
    walked from every state at once, the block end states are chained
    from ``start``, and each block keeps the trajectory from its true
    entry state.
    """
    n_steps = u.size - 1
    n_blocks = -(-n_steps // _WALK_BLOCK)
    steps = np.zeros(n_blocks * _WALK_BLOCK)
    steps[:n_steps] = u[1:]
    steps = steps.reshape(n_blocks, _WALK_BLOCK).T.copy()
    # The successor of state s under u is sum_c (u > cum[s, c]), which
    # is searchsorted (side left) on the nondecreasing row; padded steps
    # draw u = 0 and stay in range.  flat[j, s, b] holds the state after
    # step j of block b, entered in state s, as state * n_blocks + b.
    above = steps[:, None, None, :] > cum[None, :, :-1, None]
    flat = np.sum(above, axis=2, dtype=np.intp)
    blocks = np.arange(n_blocks)
    flat *= n_blocks
    flat += blocks
    rows = flat.reshape(_WALK_BLOCK, -1)
    for j in range(1, _WALK_BLOCK):
        rows[j] = rows[j][rows[j - 1]]
    entry = [start]
    for ends in (flat[-1, :, :-1] // n_blocks).T.tolist():
        entry.append(ends[entry[-1]])
    states = np.empty(u.size, dtype=np.intp)
    states[0] = start
    states[1:] = (flat[:, entry, blocks] // n_blocks).T.ravel()[:n_steps]
    return states


def simulate(spec: HmmSpec, n_pairs: int, seed: int) -> tuple[ObservedSeries, np.ndarray]:
    """Draw one stationary path of n_pairs + 1 observations.

    The first state follows the stationary law, transitions follow the
    rows of the transition matrix, and coordinates are conditionally
    independent draws from the state's emission.  Output is a
    deterministic function of (spec, n_pairs, seed).
    """
    if n_pairs < 1:
        raise ValueError("need n_pairs >= 1")
    rng = np.random.default_rng(seed)
    n_obs = n_pairs + 1
    # Rounding can leave a cumulative sum just below 1; a uniform above
    # it would then select a state past the last one.
    start_cum = np.cumsum(spec.stationary)
    start_cum[-1] = 1.0
    cum = np.cumsum(spec.transition, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(n_obs)
    states = _walk(cum, u, int(np.searchsorted(start_cum, u[0])))
    obs = np.empty((n_obs, spec.dim))
    for ell in range(spec.n_states):
        mask = states == ell
        count = int(mask.sum())
        if count:
            obs[mask] = spec.emissions[ell].sample(rng, (count, spec.dim))
    return ObservedSeries.from_points(obs, kind=spec.kind), states


def shift_scenario(
    noise: str = GAUSSIAN_NOISE, delta: float = 5.0, nu: float = 0.1, dim: int = 1
) -> HmmSpec:
    """Three-state shift model: state 2 shifted by +delta, state 3 by
    -delta, state 1 centred, iid noise in every coordinate."""
    emissions = (
        ShiftNoise(0.0, noise),
        ShiftNoise(delta, noise),
        ShiftNoise(-delta, noise),
    )
    return HmmSpec.from_transition(make_transition_nu(nu), emissions, dim=dim)


#: emissions and sample space of each named paper scenario
_PAPER_EMISSIONS = {
    "beta3": ((Beta(12.0, 1.0), Beta(1.0, 12.0), Beta(12.0, 12.0)), LINEAR),
    "gauss3": ((GaussianLoc(-6.0), GaussianLoc(6.0), GaussianLoc(0.0)), LINEAR),
    "vm3": (
        (
            VonMisesLoc(np.pi / 2, 10.0),
            VonMisesLoc(np.pi / 2 + 2 * np.pi / 3, 10.0),
            VonMisesLoc(np.pi / 2 + 4 * np.pi / 3, 10.0),
        ),
        CIRCULAR,
    ),
}


def _paper_scenario(name: str, transition: np.ndarray) -> HmmSpec:
    emissions, kind = _PAPER_EMISSIONS[name]
    return HmmSpec.from_transition(transition, emissions, kind=kind)


def paper_scenarios(nu: float = 0.1) -> dict:
    """The named three-state benchmark scenarios.

    ``beta3``: B(12, 1), B(1, 12), B(12, 12) on [0, 1].
    ``gauss3``: N(-6, 1), N(6, 1), N(0, 1) on R.
    ``vm3``: von Mises with means pi/2, pi/2 + 2pi/3, pi/2 + 4pi/3 and
    concentration 10 on the circle.
    """
    a = make_transition_nu(nu)
    return {name: _paper_scenario(name, a) for name in _PAPER_EMISSIONS}


def get_scenario(
    name: str,
    noise: str = GAUSSIAN_NOISE,
    delta: float = 5.0,
    nu: float = 0.1,
    dim: int = 1,
) -> HmmSpec:
    """Resolve a scenario name to a specification.

    Names: ``beta3``, ``gauss3``, ``vm3`` and the parameterized
    ``gauss-shift``, ``student-shift``, ``laplace-shift``, ``exp-shift``
    and ``shift`` (noise family from ``noise``).  A named shift scenario
    fixes its noise family, and the paper scenarios are univariate and
    add neither noise nor a shift, so a ``noise`` other than the default
    that contradicts the name, or ``dim != 1`` or ``delta != 5.0`` with
    a paper scenario, raises ``ValueError``.
    """
    if name in SHIFT_SCENARIOS:
        if noise not in (GAUSSIAN_NOISE, SHIFT_SCENARIOS[name]):
            raise ValueError(
                f"scenario {name!r} has {SHIFT_SCENARIOS[name]} noise, not {noise!r}"
            )
        return shift_scenario(SHIFT_SCENARIOS[name], delta=delta, nu=nu, dim=dim)
    if name == "shift":
        return shift_scenario(noise, delta=delta, nu=nu, dim=dim)
    if name in _PAPER_EMISSIONS:
        if noise != GAUSSIAN_NOISE:
            raise ValueError(f"scenario {name!r} has no noise family, got noise={noise!r}")
        if dim != 1:
            raise ValueError(f"scenario {name!r} is univariate, got dim={dim}")
        if delta != 5.0:
            raise ValueError(f"scenario {name!r} has no shift, got delta={delta!r}")
        return _paper_scenario(name, make_transition_nu(nu))
    raise KeyError(
        f"unknown scenario {name!r}; expected one of "
        f"{sorted(_PAPER_EMISSIONS) + sorted(SHIFT_SCENARIOS) + ['shift']}"
    )
