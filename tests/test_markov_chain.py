"""ORIGINAL and DOMINANT mode at m = 1 against their exact Markov chain.

With one band the system is a two-queue chain on (q_p, q_s).  In a slot
whose band is busy the secondary transmits only if it misdetects the band
(p_md) and is willing (always in DOMINANT mode, while q_s > 0 in ORIGINAL
mode); it then collides, and otherwise the primary departs when its link
succeeds (p_bar_p).  In a slot whose band is empty the primary does nothing
and the secondary departs when q_s > 0, it declares the band idle
(1 - p_fa) and its link succeeds (s(1)).  Bernoulli arrivals follow the
departures.  The run() = step() properties cannot catch a protocol rule that
both of them get wrong; the chain can.
"""

import math

import numpy as np
import pytest

from specagg import Mode, ScenarioConfig, SensingParams, SimConfig, TrafficParams, analyze, run

from conftest import make_channel

LEVELS = 61  # each queue is truncated at 60 packets


def _phase_moves(alpha: float, lambda_p: float) -> np.ndarray:
    """(LEVELS, LEVELS) moves of q_p in one slot: a busy band departs with
    probability alpha; arrivals past the truncation stay at the top."""
    moves = np.zeros((LEVELS, LEVELS))
    moves[0, 0], moves[0, 1] = 1 - lambda_p, lambda_p
    for p in range(1, LEVELS):
        moves[p, p - 1] = alpha * (1 - lambda_p)
        moves[p, p] = alpha * lambda_p + (1 - alpha) * (1 - lambda_p)
        moves[p, min(p + 1, LEVELS - 1)] += (1 - alpha) * lambda_p
    return moves


def chain_blocks(scenario: ScenarioConfig, mode: Mode, success_1: float):
    """Per level q_s, the (down, same, up) transition blocks between q_p phases."""
    p_bar = scenario.channel.p_bar_p
    p_fa, p_md = scenario.sensing.p_fa, scenario.sensing.p_md
    lambda_p, lambda_s = scenario.traffic.lambda_p, scenario.traffic.lambda_s
    blocks = []
    for s in range(LEVELS):
        willing = mode is Mode.DOMINANT or s > 0
        primary = _phase_moves(p_bar * (1 - p_md * willing), lambda_p)
        # an empty band: the secondary departs with probability beta
        beta = (1 - p_fa) * success_1 if s > 0 else 0.0
        down, same, up = (np.zeros((LEVELS, LEVELS)) for _ in range(3))
        busy = slice(1, None)
        same[busy] = primary[busy] * (1 - lambda_s)
        up[busy] = primary[busy] * lambda_s
        down[0] = primary[0] * beta * (1 - lambda_s)
        same[0] = primary[0] * (beta * lambda_s + (1 - beta) * (1 - lambda_s))
        up[0] = primary[0] * (1 - beta) * lambda_s
        blocks.append([down, same, up])
    # arrivals at the top level stay there
    blocks[-1][1] += blocks[-1][2]
    blocks[-1][2] = np.zeros((LEVELS, LEVELS))
    return blocks


def stationary(blocks) -> np.ndarray:
    """pi[q_s, q_p] of a level-tridiagonal chain, by linear level reduction.

    pi_{l+1} = pi_l R_{l+1}, with R_top = -U (S_top)^-1 and
    R_l = -U (S_l + R_{l+1} D_{l+1})^-1 below it, where S = same - I; pi_0
    is the left null vector of S_0 + R_1 D_1.
    """
    eye = np.eye(LEVELS)
    rates = [None] * LEVELS
    inner = blocks[-1][1] - eye
    for level in range(LEVELS - 1, 0, -1):
        up = blocks[level - 1][2]
        rates[level] = -np.linalg.solve(inner.T, up.T).T
        inner = blocks[level - 1][1] - eye + rates[level] @ blocks[level][0]
    # pi_0 inner = 0 with pi_0 summing to 1: one equation swapped for the sum
    system = inner.copy()
    system[:, 0] = 1.0
    rhs = np.zeros(LEVELS)
    rhs[0] = 1.0
    pi = [np.linalg.solve(system.T, rhs)]
    for level in range(1, LEVELS):
        pi.append(pi[-1] @ rates[level])
    pi = np.array(pi)
    return pi / pi.sum()


def chain_report(scenario: ScenarioConfig, mode: Mode) -> dict:
    """The report fields that the stationary chain predicts exactly."""
    success_1 = SimConfig(scenario=scenario, mode=mode, slots=1, seed=0)._success_table[1]
    pi = stationary(chain_blocks(scenario, mode, success_1))
    q = np.arange(LEVELS)
    p_bar, p_md = scenario.channel.p_bar_p, scenario.sensing.p_md
    beta = (1 - scenario.sensing.p_fa) * success_1
    backlogged = pi[1:].sum()
    # successes: an empty band declared idle by a transmitting secondary
    successes = pi[:, 0].sum() * beta if mode is Mode.DOMINANT else pi[1:, 0].sum() * beta
    willing = np.ones(LEVELS) if mode is Mode.DOMINANT else (q > 0).astype(float)
    departures_p = (pi[:, 1:].sum(axis=1) * p_bar * (1 - p_md * willing)).sum()
    return {
        "mean_queue_s": float(q @ pi.sum(axis=1)),
        "mean_queue_p": float(pi.sum(axis=0) @ q),
        "throughput_s": float(pi[1:, 0].sum() * beta),
        "empirical_mu_s": float(successes / (1.0 if mode is Mode.DOMINANT else backlogged)),
        "empirical_mu_p": float(departures_p / pi[:, 1:].sum()),
        "edge_mass": float(pi[-1].sum() + pi[:, -1].sum()),
        "p_backlogged": float(backlogged),
    }


def one_band(
    lambda_p: float, lambda_s_share: float, p_fa: float, p_md: float, **channel_overrides
) -> ScenarioConfig:
    """The reference channel at m = 1 unless overridden, with lambda_s a share of mu_s."""
    channel = make_channel(m_bands=1, k_antennas=1, **channel_overrides)
    sensing = SensingParams(p_fa=p_fa, p_md=p_md)
    mu_s = analyze(channel, sensing, TrafficParams(lambda_p=lambda_p, lambda_s=0.0)).mu_s
    traffic = TrafficParams(lambda_p=lambda_p, lambda_s=round(lambda_s_share * mu_s, 6))
    return ScenarioConfig(channel=channel, sensing=sensing, traffic=traffic)


def test_chain_reproduces_the_reference_values():
    # the four-digit values of an independent sparse solve at lambda_s = 0.7 mu_s
    chain = chain_report(one_band(0.5, 0.7, 0.05, 0.05), Mode.ORIGINAL)
    assert chain["mean_queue_s"] == pytest.approx(2.3251, abs=1e-4)
    assert chain["mean_queue_p"] == pytest.approx(0.6807, abs=1e-4)
    assert chain["p_backlogged"] == pytest.approx(0.7013, abs=1e-4)
    assert chain["edge_mass"] <= 1e-9


OPERATING_POINTS = [
    # the reference point, where s(1) is small and the secondary seldom
    # transmits, the same with perfect sensing, and a strong secondary link
    # with poor sensing, where ORIGINAL mode frees the primary more often
    (0.5, 0.7, 0.05, 0.05),
    (0.5, 0.7, 0.0, 0.0),
    (0.3, 0.7, 0.1, 0.2, dict(snr_s=8.0, spectral_eff_r=1.0)),
]
SEEDS = range(8)
SLOTS = 300_000


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("point", OPERATING_POINTS)
def test_run_matches_the_chain_at_one_band(point, mode):
    *rates, channel = point if isinstance(point[-1], dict) else (*point, {})
    scenario = one_band(*rates, **channel)
    chain = chain_report(scenario, mode)
    assert chain["edge_mass"] <= 1e-9
    reports = [
        run(SimConfig(scenario=scenario, mode=mode, slots=SLOTS, seed=seed)).to_dict()
        for seed in SEEDS
    ]
    for field in ("mean_queue_s", "mean_queue_p", "throughput_s", "empirical_mu_s", "empirical_mu_p"):
        values = np.array([report[field] for report in reports])
        std_err = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - chain[field]) <= 3 * std_err, (field, values, chain[field])
