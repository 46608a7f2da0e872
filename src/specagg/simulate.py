"""Slotted Monte Carlo simulation of the band-aggregation protocol.

Per slot: backlogged primaries transmit on their own bands; the secondary
senses every band and, when it has (or fakes) a packet, transmits one
packet over the aggregate of all bands it declared idle.  Any band carrying
two transmissions kills both packets.  Channel outcomes are drawn as
Bernoulli trials with the closed-form success probabilities (per-slot
distribution is identical to sampling fading coefficients).  Departures are
applied before arrivals, so a packet arriving in a slot cannot be served in
that slot.

run() executes blocks of slots as (bands, slots) arrays.  Let z_t say
whether the secondary transmits in slot t when it declares some band idle.
Given z, band b is served when its primary link succeeds and the secondary
did not both misdetect it and transmit, so every primary queue follows its
own Lindley recursion q_{t+1} = max(q_t - s_t, 0) + a_t.  Its arrival and
served bits are packed eight slots to a byte, each byte looks up its path
through those slots in one 65,536 x 8 byte table (512 KB, built on first
use), and one cumsum and one maximum.accumulate over the bytes give the
backlog before each byte, which the table expands in place into a buffer
that the caller hands in: the backlog before every slot and after the last,
in int32 while the block's backlogs are sure to fit and in int64 otherwise.
Occupancy, the declared-idle set, the aggregate width, collisions and
secondary successes follow from the queues by bitwise operations on boolean
arrays, with counts summed in the narrowest unsigned dtype that holds them,
and the secondary backlog is a second Lindley recursion served by those
successes.  Every block starts from z = 1, an array of ones, and what does
not depend on z is computed once per block.  DOMINANT mode has z = 1 and
stops after that pass.  ORIGINAL mode has z_t = [q_s > 0 at the start of
slot t], which the block itself determines, so it repeats the pass with z
taken from the previous one until z stops changing.  Slot t of a pass
depends only on z before t, so pass k settles the first k slots: a block of
n slots reaches the fixed point within n + 1 passes, and that fixed point
is the causal run.

Each later ORIGINAL pass scans the primary queues from the bytes of the
scan before: it finds every byte's code (its packed bits) and start (the
backlog before it) anew, which costs about two thirds of a full scan, and
expands only the bytes where either changed.  A byte's eight backlogs
depend on its code and start alone, so every other byte already holds the
right ones, whichever way the served flags moved; at the reference point a
later pass changes 6% of the bytes on average.  The secondary part of every
pass (occupancy, the declared set, the width, collisions, successes and the
secondary's own scan) is recomputed in full.

--trace renders a block at a time too: every field of the block's slots
becomes a column of one (slots, width) byte matrix, with the key text
between them broadcast to every row.  Each kind of field is rendered in one
call.  The four band masks are stacked, and up to 64 bands each mask of a
slot is byte-packed into one word, eight bands to a byte.  The slot numbers
and those words are split into four-digit groups by repeated division by
10 000 and written from a lookup table, with NUL for each leading zero.  The
five flags are stacked too, each "false" or "true" padded with a NUL.
Dropping the NULs from the flat matrix leaves the NDJSON lines, which are
written as bytes.  A run keeps the matrix and its NUL mask from block to
block while its columns keep their widths, so the key text is copied once
per layout.

run() keeps the stream, the blocks, the trace, the backlogs handed on and
the buffer of every primary scan of the run, which it passes down; a private
_Tally adds up every sum the report needs, the secondary's arrivals and
departures over the whole horizon and the rest over the measured slots.

step() is the literal per-slot reference of the protocol, the way the
enumeration oracle backs the closed form: the tests check run() against a
loop of step() calls, field for field.

Randomness discipline: one value is consumed from every stream on every
slot, whether or not it ends up used, so runs sharing a seed see identical
arrival/channel/sensing realizations in DOMINANT and ORIGINAL modes, and
run() (draw_block) and step() (next_slot) see the same draws.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .channel import _integer, _real, pu_success_prob, su_success_table

if TYPE_CHECKING:
    from .config import ScenarioConfig

__all__ = [
    "Mode",
    "Verdict",
    "SimConfig",
    "QueueState",
    "SlotOutcome",
    "SimReport",
    "ProtocolStreams",
    "SlotDraws",
    "step",
    "run",
]

BATCH_COUNT = 100


class Mode(Enum):
    """DOMINANT: the secondary sends dummy packets when its queue is empty
    (saturated upper bound).  ORIGINAL: it stays silent when empty."""

    DOMINANT = "DOMINANT"
    ORIGINAL = "ORIGINAL"


class Verdict(Enum):
    STABLE = "STABLE"
    UNSTABLE = "UNSTABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scenario, mode, horizon, seed, warmup.

    warmup slots are excluded from the report statistics; None means 10%
    of the horizon.  The least-squares drift of the secondary backlog is
    compared against the two slope thresholds (packets/slot) to call the
    stability verdict.
    """

    scenario: ScenarioConfig
    mode: Mode
    slots: int
    seed: int
    warmup: int | None = None
    unstable_slope: float = 0.01
    stable_slope: float = 0.001

    def __post_init__(self) -> None:
        if self.warmup is None:
            object.__setattr__(self, "warmup", _integer("slots", self.slots) // 10)
        for name in ("slots", "seed", "warmup"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.slots < 1:
            raise ValueError(f"slots: must be >= 1, got {self.slots}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if not 0 <= self.warmup < self.slots:
            raise ValueError(
                f"warmup: must be in [0, slots={self.slots}), got {self.warmup}"
            )
        for name in ("unstable_slope", "stable_slope"):
            value = _real(name, getattr(self, name))
            # an int is finite however large, though math.isfinite overflows on it
            if not isinstance(value, numbers.Integral) and not math.isfinite(value):
                raise ValueError(f"{name}: must be a finite number, got {value!r}")
        if self.stable_slope > self.unstable_slope:
            raise ValueError(
                f"stable_slope: must be <= unstable_slope={self.unstable_slope}, "
                f"got {self.stable_slope}"
            )
        # step() reads it every slot and run() once; building it costs m
        # link successes, so it is built once, when the config is made, and
        # every run of the config then does the same work
        object.__setattr__(self, "_success_table", su_success_table(self.scenario.channel))


@dataclass
class QueueState:
    """Backlogs at a slot boundary: one queue per primary plus the secondary."""

    primary: list[int]
    secondary: int


class SlotOutcome(NamedTuple):
    """Everything that happened in one slot; band sets are bitmasks."""

    slot: int
    occupancy: int
    declared_idle: int
    su_transmitted: bool
    su_success: bool
    su_departure: bool
    pu_departures: int
    collision: bool
    primary_arrivals: int
    secondary_arrival: bool


@dataclass(frozen=True)
class SimReport:
    """Post-warmup statistics of one run (totals cover the full horizon)."""

    mode: Mode
    slots: int
    warmup: int
    seed: int
    empirical_mu_p: float
    empirical_mu_s: float
    throughput_s: float
    mean_queue_p: float
    mean_queue_s: float
    stability_verdict_s: Verdict
    collisions: int
    std_err_mu_s: float
    arrivals_s: int
    departures_s: int
    final_queue_s: int

    def to_dict(self) -> dict:
        """The fields in declaration order, enums as their values."""
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            out[field.name] = value.value if isinstance(value, Enum) else value
        return out


# The weight of each band within its byte of a band word.
_BYTE_WEIGHTS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)[:, None]


def _band_words(bits: np.ndarray) -> np.ndarray:
    """Fold (..., bands <= 64, slots) booleans into one uint64 word per slot.

    Each run of 8 bands is weighted by 1..128 and summed into one byte, and
    a slot's bytes, lowest bands first, are read as one little-endian word
    of 1, 2, 4 or 8 bytes, the narrowest that holds them, so the words do
    not depend on the host's byte order.
    """
    *lead, m, n = bits.shape
    count = -(-m // 8)
    size = 1 << (count - 1).bit_length()
    words = np.zeros((*lead, n, size), dtype=np.uint8)
    columns = np.swapaxes(words, -1, -2)
    u8 = bits.view(np.uint8)
    for j in range(count):
        rows = u8[..., 8 * j : 8 * j + 8, :]
        weighted = rows * _BYTE_WEIGHTS[: rows.shape[-2]]
        columns[..., j, :] = weighted.sum(axis=-2, dtype=np.uint8)
    return words.view(f"<u{size}")[..., 0].astype(np.uint64)


def _pack_slot_masks(bits: np.ndarray) -> list[int]:
    """Fold a (bands, slots) boolean matrix into one bitmask int per slot.

    Each run of up to 64 bands is summed into one uint64 word per slot;
    wider matrices join their words as Python ints.
    """
    masks = _band_words(bits[:64]).tolist()
    for lo in range(64, bits.shape[0], 64):
        words = _band_words(bits[lo : lo + 64]).tolist()
        masks = [m | (w << lo) for m, w in zip(masks, words)]
    return masks


class SlotDraws(NamedTuple):
    """The draws of a run of consecutive slots, one column per slot.

    The band draws are (bands, slots) boolean arrays; su_uniform holds one
    float in [0, 1) per slot and secondary_arrival one boolean per slot.
    """

    sense_if_busy: np.ndarray
    sense_if_idle: np.ndarray
    pu_channel_ok: np.ndarray
    su_uniform: np.ndarray
    primary_arrivals: np.ndarray
    secondary_arrival: np.ndarray


class ProtocolStreams:
    """Deterministic named sub-streams with a fixed per-slot draw layout.

    One arrival stream per queue, one channel stream per link, one sensing
    stream per band, all spawned from a single 64-bit-or-wider seed.  Every
    slot consumes exactly one value from every stream.  draw_block(n)
    returns the next n slots as a SlotDraws; next_slot() returns one slot as
    (sense_if_busy, sense_if_idle, pu_channel_ok, su_uniform,
     primary_arrivals, secondary_arrival)
    where the first three and primary_arrivals are band bitmasks.  next_slot
    buffers slots drawn by the same path, 2**8 at first and twice as many on
    each refill up to _CHUNK, so a short run draws little more than it uses.
    A stream serves either next_slot or draw_block; draw_block refuses to
    skip buffered slots.
    """

    _FIRST_REFILL = 1 << 8
    _CHUNK = 1 << 15

    def __init__(self, scenario: ScenarioConfig, seed: int):
        channel = scenario.channel
        m = channel.m_bands
        arrivals_ss, channels_ss, sensing_ss = np.random.SeedSequence(seed).spawn(3)
        pcg = np.random.PCG64
        self._arrival_gens = [
            np.random.Generator(pcg(s)) for s in arrivals_ss.spawn(m + 1)
        ]
        self._channel_gens = [
            np.random.Generator(pcg(s)) for s in channels_ss.spawn(m + 1)
        ]
        self._sensing_gens = [
            np.random.Generator(pcg(s)) for s in sensing_ss.spawn(m)
        ]
        self._m = m
        self._p_bar_p = pu_success_prob(channel)
        self._p_md = scenario.sensing.p_md
        self._p_fa = scenario.sensing.p_fa
        self._lambda_p = scenario.traffic.lambda_p
        self._lambda_s = scenario.traffic.lambda_s
        self.consumed = 0
        self._pos = 0
        self._size = 0
        self._refill_size = self._FIRST_REFILL

    def _draw(self, n: int) -> SlotDraws:
        m = self._m
        u = np.empty(n)
        sense_busy = np.empty((m, n), dtype=bool)
        sense_idle = np.empty((m, n), dtype=bool)
        pu_ok = np.empty((m, n), dtype=bool)
        arr_p = np.empty((m, n), dtype=bool)
        for b in range(m):
            self._sensing_gens[b].random(out=u)
            np.less(u, self._p_md, out=sense_busy[b])
            np.less(u, 1.0 - self._p_fa, out=sense_idle[b])
            self._channel_gens[b].random(out=u)
            np.less(u, self._p_bar_p, out=pu_ok[b])
            self._arrival_gens[b].random(out=u)
            np.less(u, self._lambda_p, out=arr_p[b])
        su_u = self._channel_gens[m].random(n)
        arr_s = self._arrival_gens[m].random(n) < self._lambda_s
        return SlotDraws(sense_busy, sense_idle, pu_ok, su_u, arr_p, arr_s)

    def draw_block(self, n: int) -> SlotDraws:
        """The draws of the next n slots."""
        if self._pos < self._size:
            raise RuntimeError("draw_block() would skip slots buffered by next_slot()")
        self.consumed += n
        return self._draw(n)

    def _refill(self) -> None:
        # one tuple per slot in next_slot() order, band sets as bitmasks
        draws = self._draw(self._refill_size)
        self._slots = list(
            zip(
                _pack_slot_masks(draws.sense_if_busy),
                _pack_slot_masks(draws.sense_if_idle),
                _pack_slot_masks(draws.pu_channel_ok),
                draws.su_uniform.tolist(),
                _pack_slot_masks(draws.primary_arrivals),
                draws.secondary_arrival.tolist(),
            )
        )
        self._pos = 0
        self._size = self._refill_size
        self._refill_size = min(2 * self._refill_size, self._CHUNK)

    def next_slot(self) -> tuple[int, int, int, float, int, bool]:
        if self._pos >= self._size:
            self._refill()
        i = self._pos
        self._pos = i + 1
        self.consumed += 1
        return self._slots[i]


def step(
    state: QueueState, cfg: SimConfig, streams: ProtocolStreams
) -> tuple[QueueState, SlotOutcome]:
    """Execute one slot from the given state, consuming one slot of draws."""
    m = cfg.scenario.channel.m_bands
    qp = list(state.primary)
    qs = state.secondary
    occupancy = 0
    for band in range(m):
        if qp[band] > 0:
            occupancy |= 1 << band
    sense_busy, sense_idle, pu_ok, su_u, arr_p, arr_s = streams.next_slot()
    slot = streams.consumed - 1
    declared = (sense_busy & occupancy) | (sense_idle & ~occupancy & ((1 << m) - 1))
    su_tx = declared != 0 and (cfg.mode is Mode.DOMINANT or qs > 0)
    collision = False
    su_success = False
    if su_tx:
        if declared & occupancy:
            collision = True
        elif su_u < cfg._success_table[declared.bit_count()]:
            su_success = True
        pu_dep = occupancy & pu_ok & ~declared
    else:
        pu_dep = occupancy & pu_ok
    su_departure = su_success and qs > 0
    if su_departure:
        qs -= 1
    w = pu_dep
    while w:
        low = w & -w
        qp[low.bit_length() - 1] -= 1
        w ^= low
    w = arr_p
    while w:
        low = w & -w
        qp[low.bit_length() - 1] += 1
        w ^= low
    if arr_s:
        qs += 1
    outcome = SlotOutcome(
        slot=slot,
        occupancy=occupancy,
        declared_idle=declared,
        su_transmitted=su_tx,
        su_success=su_success,
        su_departure=su_departure,
        pu_departures=pu_dep,
        collision=collision,
        primary_arrivals=arr_p,
        secondary_arrival=bool(arr_s),
    )
    return QueueState(primary=qp, secondary=qs), outcome


# Slots per block: about _BLOCK_ELEMENTS entries in each (bands, slots) array.
_BLOCK_ELEMENTS = 1 << 16
_MIN_BLOCK_SLOTS = 256
# _lindley_buffer scans in int32 while max(q0) + 2 * slots stays below this.
_NARROW_LIMIT = np.iinfo(np.int32).max


def _block_slots(m: int) -> int:
    return max(_MIN_BLOCK_SLOTS, _BLOCK_ELEMENTS // m)


@lru_cache(maxsize=1)
def _byte_paths() -> np.ndarray:
    """Word a | s << 8 holds, for arrival bits a and served bits s of eight
    slots (slot i in bit i), byte i = (L + 8) | W << 4: L is the net change
    over slots 0..i-1 and W their floor, so a backlog r before slot 0 is
    L + max(r, W) before slot i, with L in [-7, 7] and W in [0, 7].  Built
    on first use: 512 KB."""
    gained = np.tile(np.arange(256, dtype=np.uint8), 256)  # a, the index's low byte
    lost = np.repeat(np.arange(256, dtype=np.uint8), 256)
    table = np.empty((1 << 16, 8), dtype=np.uint8)
    level, floor = np.zeros((2, 1 << 16), dtype=np.int8)
    for i in range(8):
        table[:, i] = (level + 8) | (floor << 4)
        loss = ((lost >> i) & 1).view(np.int8)
        np.maximum(floor, loss - level, out=floor)
        level += ((gained >> i) & 1).view(np.int8) - loss
    table.flags.writeable = False
    return table.view(np.uint64).reshape(-1)


def _lindley_buffer(q0, arrivals: np.ndarray, service: np.ndarray, scans: dict, before=None):
    """Backlogs of q' = max(q - service, 0) + arrivals along the last axis,
    and the scan's bytes, for a later scan of the same rows to pass as before.

    The backlogs are a view of n + 1 columns: column t holds the backlog
    before slot t and column n the one after the last slot.  It is a view of
    scans[dtype], grown when too small, which holds eight columns for each
    byte of eight slots and for the byte that holds column n, so an output
    lives until the next scan with the same dict; a caller that wants fresh
    arrays passes {}.

    Byte j of eight slots takes a backlog r to max(r, w_j) + l_j: l_j is its
    arrivals less its served slots, w_j its path's floor (_byte_paths).
    With T_j the sum of l before byte j, the backlog is r_j = T_j + max(q0,
    max_{k<j}(w_k - T_k)) before it and L(i) + max(r_j, W(i)) before its
    slot i.  |T_j| <= n and each term lies in [-n, n + 1], so every value
    the scan holds lies within max(q0) + 2n + 1 of zero: it runs in int32
    whenever that fits below _NARROW_LIMIT and in int64 otherwise.

    The scan's bytes are each byte's code, its packed served and arrival
    bits, and its start r_j.  A byte's eight columns depend on these alone.
    So a scan handed as before the bytes of the last scan with the same q0,
    arrivals and dict, whose output nothing has written to since, finds
    every code and start anew and expands only the bytes where either
    changed: every other byte's columns already hold what they would get.
    That is exact for any service flags.
    """
    q0 = np.asarray(q0)
    n = arrivals.shape[-1]
    dtype = np.int32 if int(q0.max()) + 2 * n < _NARROW_LIMIT else np.int64
    full = n // 8  # the bytes of eight slots
    shape = arrivals.shape[:-1] + (full + 1,)  # and the byte that holds column n
    gained = np.packbits(arrivals, axis=-1, bitorder="little")
    lost = np.packbits(service, axis=-1, bitorder="little")
    code = np.zeros(shape, dtype=np.uint16)
    code[..., : lost.shape[-1]] = lost.astype(np.uint16) << 8 | gained
    path = _byte_paths().take(code).view(np.uint8).reshape(shape + (8,))
    # from the path before slot 7: w = max(W(7), s_7 - L(7)), since the last
    # slot can still empty the queue, and l = L(7) + a_7 - s_7
    last = path[..., :full, 7]
    drop = (lost[..., :full] >> 7).view(np.int8) + 8 - (last & 15).view(np.int8)
    floor = np.maximum((last >> 4).view(np.int8), drop)
    net = (gained[..., :full] >> 7).view(np.int8) - drop
    total = np.zeros(shape, dtype=dtype)
    np.cumsum(net, axis=-1, dtype=dtype, out=total[..., 1:])
    start = np.empty(shape, dtype=dtype)
    start[..., 0] = q0
    np.subtract(floor, total[..., :-1], out=start[..., 1:], dtype=dtype)
    np.maximum.accumulate(start, axis=-1, out=start)
    start += total
    size = path.size
    if len(scans.get(dtype, ())) < size:
        scans[dtype] = np.empty(size, dtype=dtype)
    q = scans[dtype][:size].reshape(path.shape)
    if before is None:
        np.maximum(start[..., None], path >> 4, out=q)
        np.bitwise_and(path, 15, out=path)
        path -= 8  # L, as int8
        q += path.view(np.int8)
    else:
        # by row of eight columns: a boolean index over two axes is slower
        changed = np.flatnonzero((code != before[0]) | (start != before[1]))
        path = path.reshape(-1, 8)[changed]
        level = ((path & 15) - 8).view(np.int8)
        rows = np.maximum(start.reshape(-1, 1)[changed], path >> 4)
        q.reshape(-1, 8)[changed] = rows + level
    return q.reshape(shape[:-1] + (-1,))[..., : n + 1], (code, start)


class _Block(NamedTuple):
    """One block of slots as executed by the kernel; per-slot arrays."""

    qp: np.ndarray  # (bands, slots) primary backlogs at slot start
    occupancy: np.ndarray
    declared: np.ndarray
    served: np.ndarray  # primary link up and not hit by the secondary
    willing: np.ndarray  # (slots,) transmits when it can: 1 or [q_s > 0]
    su_transmitted: np.ndarray
    collision: np.ndarray
    su_success: np.ndarray
    su_departure: np.ndarray
    qs: np.ndarray  # secondary backlog at slot start
    qp_end: np.ndarray  # backlogs after the block's last slot
    qs_end: int

    @property
    def pu_departures(self) -> np.ndarray:
        return self.occupancy & self.served


def _block_pass(
    draws: SlotDraws, flip, backlog, served, willing, qs0, success_by_width
) -> _Block:
    """Execute a block given the primary backlogs and whether the secondary
    transmits when it can.

    backlog holds the (bands, slots + 1) backlogs of _lindley_buffer for the
    served flags, and willing holds, per slot, 1 (DOMINANT) or [q_s > 0 at
    slot start] (ORIGINAL).  The band sets are bitwise: an occupied band is
    declared idle as sense_if_busy says, an empty one as sense_if_idle says.
    """
    qp = backlog[:, :-1]
    occupancy = qp > 0
    declared = draws.sense_if_idle ^ (occupancy & flip)
    # counted in the narrowest dtype that holds m, which sums several times faster
    width = declared.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(len(declared)))
    su_tx = willing & (width > 0)
    collision = su_tx & (draws.sense_if_busy & occupancy).any(axis=0)
    success = su_tx & ~collision & (draws.su_uniform < success_by_width.take(width))
    # a fresh buffer: the secondary's backlogs never share the primaries'
    secondary, _ = _lindley_buffer(qs0, draws.secondary_arrival, success, {})
    qs = secondary[:-1]
    return _Block(
        qp=qp,
        occupancy=occupancy,
        declared=declared,
        served=served,
        willing=willing,
        su_transmitted=su_tx,
        collision=collision,
        su_success=success,
        su_departure=success & (qs > 0),
        qs=qs,
        qp_end=backlog[:, -1].astype(np.int64),
        qs_end=int(secondary[-1]),
    )


def _run_block(draws: SlotDraws, qp0, qs0, dominant: bool, success_by_width, scans) -> _Block:
    """Execute a block: iterate willing <- [q_s > 0] from all ones to its fixed point.

    A band is served when its primary link succeeds unless the secondary
    both misdetects it and transmits.  DOMINANT mode stops after the first
    pass.  Slot t of a pass depends only on willing before t, so pass k
    settles the first k slots: an ORIGINAL block of n slots reaches the
    fixed point within n + 1 passes, and the fixed point is the causal run.
    Each pass after the first scans the primaries from the bytes of the
    scan before, so it expands only the bytes whose code or start changed
    (_lindley_buffer).  Every primary scan writes into scans, the caller's
    buffer per dtype.
    """
    # shared by every pass: where occupancy flips the idle verdict, and the
    # served links that a transmitting secondary blocks
    flip = draws.sense_if_busy ^ draws.sense_if_idle
    blocked = draws.pu_channel_ok & draws.sense_if_busy
    # an array, not True: numpy broadcasts a bool array with a Python scalar
    # about 20x slower than with another bool array
    willing = np.ones(len(draws.su_uniform), dtype=bool)
    served = draws.pu_channel_ok ^ blocked
    scanned = None
    while True:
        backlog, scanned = _lindley_buffer(qp0, draws.primary_arrivals, served, scans, scanned)
        block = _block_pass(draws, flip, backlog, served, willing, qs0, success_by_width)
        if dominant:
            return block
        settled = block.qs > 0
        if np.array_equal(settled, willing):
            return block
        del block  # freed before the next scan
        served = draws.pu_channel_ok ^ (blocked & settled)
        willing = settled


def _ratio_stderr(successes: np.ndarray, opportunities: np.ndarray) -> float:
    """Batch-means standard error of r = sum(S) / sum(O) over K windows.

    The ratio estimator sqrt(sum_k (S_k - r O_k)^2 / (K (K - 1))) / mean(O),
    in the form that equals means.std(ddof=1) / sqrt(K) to the bit when every
    O_k is equal.  NaN when no window holds an opportunity.
    """
    mean_opportunities = opportunities.mean()
    if mean_opportunities == 0:
        return math.nan
    k = len(successes)
    means = successes / mean_opportunities
    d = means - means.mean() * (opportunities / mean_opportunities)
    return float(np.sqrt((d * d).sum() / (k - 1)) / math.sqrt(k))


def _drift_slope(n: int, sum_y: int, sum_iy: int) -> float:
    """Least-squares slope of y_0..y_{n-1} against i, from exact sums."""
    # sum((i - (n-1)/2) * y_i) / sum((i - (n-1)/2)^2), both as exact integers
    return 6 * (2 * sum_iy - (n - 1) * sum_y) / (n * (n * n - 1))


# The text of one trace line around its ten values, as byte rows.
_TRACE_KEYS = [
    np.frombuffer(text.encode(), dtype=np.uint8)
    for text in (
        '{"slot":@,"occupancy":@,"declared_idle":@,"su_transmitted":@,'
        '"su_success":@,"su_departure":@,"pu_departures":@,"collision":@,'
        '"primary_arrivals":@,"secondary_arrival":@}\n'
    ).split("@")
]
_FLAG_TEXT = np.frombuffer(b"false" b"true\0", dtype=np.uint8).reshape(2, 5)
# 1, 10, ..., 10**19: every power of ten below 2**64
_POWERS_OF_TEN = np.array([10**k for k in range(20)], dtype=np.uint64)
_TEN_THOUSAND = np.uint64(10_000)
# Row d keeps the last d of 20 digits and clears the rest; 0 has one digit.
_DIGIT_MASKS = np.array(
    [[0] * (20 - max(d, 1)) + [0xFF] * max(d, 1) for d in range(21)], dtype=np.uint8
)


@lru_cache(maxsize=1)
def _group_digits() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, zero-padded; built on first use."""
    groups = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    table = (groups + ord("0")).astype(np.uint8)
    table.flags.writeable = False
    return table


def _decimal_text(values: np.ndarray, top: int) -> np.ndarray:
    """uint64 values up to top as (n, width) right-aligned ASCII decimals,
    four digits at a time, with NUL for each leading zero."""
    width = 4 * -(-len(str(top)) // 4)
    groups = np.empty((len(values), width // 4), dtype=np.intp)
    # split off the low four digits at a time: dividing by one scalar takes
    # numpy's fast integer division, which a broadcast array of powers does not
    rest = values
    for g in range(width // 4 - 1, 0, -1):
        quotient = rest // _TEN_THOUSAND
        groups[:, g] = rest - quotient * _TEN_THOUSAND
        rest = quotient
    groups[:, 0] = rest
    text = np.take(_group_digits(), groups, axis=0).reshape(len(values), width)
    digits = np.searchsorted(_POWERS_OF_TEN, values, side="right")
    text &= np.take(_DIGIT_MASKS[:, -width:], digits, axis=0)
    return text


def _flag_text(flags: np.ndarray) -> np.ndarray:
    """Each flag as "false" or as "true" and a NUL; (..., 5) bytes."""
    return np.take(_FLAG_TEXT, flags.view(np.uint8), axis=0)


def _mask_text(masks: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """The band bitmask of each slot of some (bands, slots) boolean matrices
    as text, one (slots, width) byte matrix per mask.

    Up to 64 bands the masks are stacked, every mask is one uint64 word per
    slot and all of them are rendered in one call; wider masks are Python
    ints, left-aligned and NUL-padded to the longest of their own mask.
    """
    m, n = masks[0].shape
    if m <= 64:
        words = _band_words(np.stack(masks)).ravel()
        return list(_decimal_text(words, (1 << m) - 1).reshape(len(masks), n, -1))
    texts = []
    for bits in masks:
        text = np.array([str(mask) for mask in _pack_slot_masks(bits)], dtype=bytes)
        texts.append(text.view(np.uint8).reshape(n, -1))
    return texts


class _TraceLines:
    """Renders blocks as one compact JSON object per slot, as bytes.

    A block is rendered as one (slots, width) byte matrix: the key text is
    copied to every row, then each value fills its NUL-padded column.  The
    four band masks are rendered together, as are the five flags.  Dropping
    the NULs leaves the lines.  The matrix and the mask of its non-NUL bytes
    are kept from block to block while the columns keep their widths, so
    the key text is copied once per layout and a block allocates neither
    afresh.
    """

    def __init__(self) -> None:
        self._layout: tuple[int, ...] | None = None

    def __call__(self, first: int, block: _Block, draws: SlotDraws) -> np.ndarray:
        """The lines of the block's slots, numbered from first."""
        n = len(block.qs)
        occupancy, declared, pu_departures, arrivals = _mask_text(
            (block.occupancy, block.declared, block.pu_departures, draws.primary_arrivals)
        )
        su_transmitted, su_success, su_departure, collision, arrival = _flag_text(
            np.stack(
                (
                    block.su_transmitted,
                    block.su_success,
                    block.su_departure,
                    block.collision,
                    draws.secondary_arrival,
                )
            )
        )
        values = (
            _decimal_text(np.arange(first, first + n, dtype=np.uint64), first + n - 1),
            occupancy,
            declared,
            su_transmitted,
            su_success,
            su_departure,
            pu_departures,
            collision,
            arrivals,
            arrival,
        )
        layout = (n, *(value.shape[1] for value in values))
        if layout != self._layout:
            parts = [_TRACE_KEYS[0]]
            for value, key in zip(values, _TRACE_KEYS[1:]):
                parts += (np.zeros(value.shape[1], dtype=np.uint8), key)
            ends = np.cumsum([len(part) for part in parts])
            self._lines = np.empty((n, ends[-1]), dtype=np.uint8)
            self._lines[:] = np.concatenate(parts)
            self._mask = np.empty(self._lines.size, dtype=bool)
            self._value_ends = ends[1::2]
            self._layout = layout
        for value, end in zip(values, self._value_ends):
            self._lines[:, end - value.shape[1] : end] = value
        flat = self._lines.reshape(-1)
        return flat[np.not_equal(flat, 0, out=self._mask)]


class _Tally:
    """Every sum that run() reports, added one block at a time.

    The secondary's arrivals and departures cover the whole horizon; every
    other sum covers only the measured slots, after the warmup.  Departures
    are counted from su_departure and not derived as arrivals less the final
    backlog: the conservation checks compare the two, which a derived count
    would pass by construction.
    """

    def __init__(self, m: int, slots: int, warmup: int) -> None:
        self._warmup = warmup
        self._measured = slots - warmup
        self._arrivals_s = self._departures_s = self._sum_qp = self._sum_qs = self._sum_iqs = 0
        # per band: slots that start nonempty (row 0) and departures (row 1)
        self._bands = np.zeros((2, m), dtype=np.int64)
        # collisions, su_departures, successes and opportunities
        self._flags = np.zeros(4, dtype=np.int64)
        # successes (row 0) and opportunities (row 1) in each of BATCH_COUNT
        # equal windows of measured slots; the slots after the last are not batched
        self._windows = np.zeros((2, BATCH_COUNT), dtype=np.int64)

    def add(self, first: int, block: _Block, draws: SlotDraws) -> None:
        """Count the block whose slots are numbered from first."""
        self._arrivals_s += int(np.count_nonzero(draws.secondary_arrival))
        self._departures_s += int(np.count_nonzero(block.su_departure))
        lo = max(self._warmup - first, 0)
        n = len(block.qs) - lo
        if n <= 0:
            return
        # the backlogs may be int32; their sums are taken in int64
        qs = block.qs[lo:]
        sum_qs = int(qs.sum(dtype=np.int64))
        start = first + lo - self._warmup  # the measured slots before the block's
        self._sum_iqs += start * sum_qs + int(np.arange(n, dtype=np.int64) @ qs)
        self._sum_qs += sum_qs
        self._sum_qp += int(block.qp[:, lo:].sum(dtype=np.int64))
        # summed as bytes in the narrowest dtype that holds the window
        count = np.min_scalar_type(n)
        self._bands[0] += block.occupancy[:, lo:].view(np.uint8).sum(1, dtype=count)
        self._bands[1] += block.pu_departures[:, lo:].view(np.uint8).sum(1, dtype=count)
        flags = np.stack((block.collision, block.su_departure, block.su_success, block.willing))
        flags = flags[:, lo:].view(np.uint8)
        self._flags += flags.sum(1, dtype=count)
        batch = self._measured // BATCH_COUNT
        stop = min(start + n, BATCH_COUNT * batch) - start
        if stop > 0:
            # where each window this block reaches begins within it
            edges = np.maximum(np.arange(-(start % batch), stop, batch), 0)
            k = slice(start // batch, start // batch + len(edges))
            self._windows[:, k] += np.add.reduceat(flags[2:, :stop], edges, 1, dtype=np.int64)

    def report(self, cfg: SimConfig, final_queue_s: int) -> SimReport:
        measured = self._measured
        nonempty, departures = self._bands.tolist()
        ratios = [d / n for d, n in zip(departures, nonempty) if n > 0]
        collisions, su_departures, successes, opportunities = self._flags.tolist()
        # a slope of NaN, from fewer than two measured slots, is neither verdict
        slope = _drift_slope(measured, self._sum_qs, self._sum_iqs) if measured >= 2 else math.nan
        verdict = (
            Verdict.UNSTABLE if slope > cfg.unstable_slope
            else Verdict.STABLE if slope < cfg.stable_slope
            else Verdict.INCONCLUSIVE
        )
        return SimReport(
            mode=cfg.mode,
            slots=cfg.slots,
            warmup=self._warmup,
            seed=cfg.seed,
            # a ratio with no denominator is undefined, like std_err_mu_s without data
            empirical_mu_p=sum(ratios) / len(ratios) if ratios else math.nan,
            empirical_mu_s=successes / opportunities if opportunities else math.nan,
            throughput_s=su_departures / measured,
            mean_queue_p=self._sum_qp / (measured * len(nonempty)),
            mean_queue_s=self._sum_qs / measured,
            stability_verdict_s=verdict,
            collisions=collisions,
            std_err_mu_s=_ratio_stderr(*self._windows),
            arrivals_s=self._arrivals_s,
            departures_s=self._departures_s,
            final_queue_s=final_queue_s,
        )


def run(cfg: SimConfig, trace_path: str | Path | None = None) -> SimReport:
    """Simulate the configured horizon from empty queues and report statistics.

    Identical (cfg, seed) pairs produce identical reports.  When trace_path
    is given, every slot is appended to it as one JSON object per line.
    Memory does not grow with the horizon.  empirical_mu_p averages
    departures per nonempty measured slot over the bands that have one; it
    is NaN when no band is ever nonempty.  empirical_mu_s counts successes
    per transmission opportunity: every slot in DOMINANT mode, every slot
    that starts with q_s > 0 in ORIGINAL mode; it is NaN with no
    opportunity.  std_err_mu_s is its batch-means standard error over
    BATCH_COUNT windows of measured slots, NaN with fewer than BATCH_COUNT
    measured slots or no opportunity.
    """
    m = cfg.scenario.channel.m_bands
    success_by_width = np.asarray(cfg._success_table)
    streams = ProtocolStreams(cfg.scenario, cfg.seed)
    block_slots = _block_slots(m)
    tally = _Tally(m, cfg.slots, cfg.warmup)
    trace_lines = _TraceLines()
    qp, qs = np.zeros(m, dtype=np.int64), 0
    scans = {}  # the primary scan's buffer per dtype, shared by the run's blocks
    with open(trace_path, "wb") if trace_path is not None else nullcontext() as trace:
        for first in range(0, cfg.slots, block_slots):
            draws = streams.draw_block(min(block_slots, cfg.slots - first))
            block = _run_block(draws, qp, qs, cfg.mode is Mode.DOMINANT, success_by_width, scans)
            tally.add(first, block, draws)
            if trace is not None:
                trace.write(trace_lines(first, block, draws))
            qp, qs = block.qp_end, block.qs_end
    return tally.report(cfg, qs)
