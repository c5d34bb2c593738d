"""Deterministic per-link fault schedules.

A :class:`FaultSchedule` decides, for each (monitor, sender) link and
each transmission start slot, whether the monitor's decode of that
frame is impaired — and how.  Four impairment shapes are modeled, all
*monitor-side*: they never change what the sender put on the air or how
the exchange itself resolves, only what the observing node recovers
from it (so the MAC/PHY dynamics of a faulted run stay byte-identical
to the clean run and the detector sees strictly degraded input).

* ``decode_failure`` — the preamble is lost outright with probability
  ``decode``; the monitor still senses the busy period.
* ``rts_corrupt`` — with probability ``corrupt``, 1–3 bytes of the
  26-byte RTS extension wire image flip in flight; the CRC-32 check in
  :func:`repro.mac.frames.decode_rts` rejects the frame.
* ``rts_truncated`` — with probability ``truncate``, the tail of the
  wire image is cut; the length check rejects it.
* ``burst_loss`` — the link spends roughly ``burst_fraction`` of its
  time inside loss windows ``burst_slots`` long, during which nothing
  decodes (fading / interference bursts).

Every decision is a **pure function** of (schedule seed, monitor,
sender, start slot), built from :func:`repro.mac.prng.splitmix64` over
a :func:`repro.util.rng.derive_seed` per-link seed.  No stream state is
consumed, so outcomes are independent of the order in which links are
queried — which is what makes faulted runs deterministic across
``--jobs`` worker counts, and the same for every subscription the
observatory serves from one monitor node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.mac.frames import FrameDecodeError, RtsFrame, decode_rts, encode_rts
from repro.mac.prng import splitmix64
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import-time only
    pass

#: Impairment reason codes, as they appear in audit records and in the
#: ``detector.quarantined.<reason>`` metric names.
IMPAIRMENT_DECODE_FAILURE = "decode_failure"
IMPAIRMENT_RTS_CORRUPT = "rts_corrupt"
IMPAIRMENT_RTS_TRUNCATED = "rts_truncated"
IMPAIRMENT_BURST_LOSS = "burst_loss"
#: Physics-side quarantine label: the monitor could not decode for
#: simulated-world reasons (out of decode range, itself transmitting,
#: garbled preamble).  Not produced by a schedule — the detector labels
#: untagged undecodable observations with it.
IMPAIRMENT_UNDECODABLE = "undecodable"

IMPAIRMENT_REASONS = (
    IMPAIRMENT_DECODE_FAILURE,
    IMPAIRMENT_RTS_CORRUPT,
    IMPAIRMENT_RTS_TRUNCATED,
    IMPAIRMENT_BURST_LOSS,
    IMPAIRMENT_UNDECODABLE,
)

_TWO64 = float(1 << 64)
#: Decision-channel salts: each per-transmission draw hashes a distinct
#: salt so the decode/corrupt/truncate decisions are independent.
_SALT_DECODE = 0x1
_SALT_CORRUPT = 0x2
_SALT_TRUNCATE = 0x3
_SALT_BURST = 0x4
_SALT_DAMAGE = 0x5


@dataclass(frozen=True)
class FaultSpec:
    """Parsed fault-injection parameters (all probabilities in [0, 1])."""

    decode: float = 0.0
    corrupt: float = 0.0
    truncate: float = 0.0
    burst_fraction: float = 0.0
    burst_slots: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for field in ("decode", "corrupt", "truncate", "burst_fraction"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"fault probability {field} must be in [0, 1], got {value}"
                )
        if self.burst_fraction > 0.0 and self.burst_slots <= 0:
            raise ValueError(
                "burst_slots must be positive when burst_fraction > 0"
            )

    @property
    def any_active(self) -> bool:
        """True if this spec impairs anything at all."""
        return (
            self.decode > 0.0
            or self.corrupt > 0.0
            or self.truncate > 0.0
            or self.burst_fraction > 0.0
        )

    def describe(self) -> str:
        """The canonical spec string (parse round-trips through it)."""
        parts = []
        if self.decode:
            parts.append(f"decode={self.decode:g}")
        if self.corrupt:
            parts.append(f"corrupt={self.corrupt:g}")
        if self.truncate:
            parts.append(f"truncate={self.truncate:g}")
        if self.burst_fraction:
            parts.append(f"burst={self.burst_fraction:g}:{self.burst_slots}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


def parse_fault_spec(text: str) -> Optional[FaultSpec]:
    """Parse a ``--faults`` / ``REPRO_FAULTS`` spec string.

    Format: comma-separated ``key=value`` pairs, e.g.
    ``"decode=0.3,corrupt=0.1,truncate=0.05,burst=0.2:3000,seed=7"``.
    ``burst`` takes ``fraction:length_slots``.  ``"off"``, ``"0"`` and
    the empty string disable fault injection (return ``None``).
    """
    text = text.strip()
    if text in ("", "off", "0", "none"):
        return None
    kwargs: Dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad fault spec component {part!r}: expected key=value"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "burst":
                fraction_text, _, slots_text = value.partition(":")
                kwargs["burst_fraction"] = float(fraction_text)
                kwargs["burst_slots"] = int(slots_text) if slots_text else 2000
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key in ("decode", "corrupt", "truncate"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        except ValueError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise ValueError(f"bad fault spec component {part!r}") from exc
    spec = FaultSpec(**kwargs)  # type: ignore[arg-type]
    return spec if spec.any_active else None


class FaultSchedule:
    """Stateless-per-draw impairment oracle for one :class:`FaultSpec`.

    The only mutable state is the memo of per-link seeds; every
    impairment decision is a pure hash of (link seed, start slot), so
    query order never matters.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._link_seeds: Dict[Tuple[int, int], int] = {}
        if spec.burst_fraction > 0.0:
            # A burst of burst_slots falls somewhere inside each period;
            # period length sets the long-run in-burst fraction.
            self._burst_period = max(
                int(round(spec.burst_slots / spec.burst_fraction)),
                spec.burst_slots,
            )
        else:
            self._burst_period = 0

    def _link_seed(self, monitor: int, sender: int) -> int:
        key = (monitor, sender)
        seed = self._link_seeds.get(key)
        if seed is None:
            seed = self._link_seeds[key] = derive_seed(
                self.spec.seed, "faults", monitor, sender
            )
        return seed

    @staticmethod
    def _uniform(link_seed: int, start_slot: int, salt: int) -> float:
        """A U[0,1) draw that is a pure function of its arguments."""
        return splitmix64(link_seed ^ splitmix64(start_slot * 8 + salt)) / _TWO64

    def _in_burst(self, link_seed: int, slot: int) -> bool:
        period = self._burst_period
        if period <= 0:
            return False
        index, phase = divmod(slot, period)
        slack = period - self.spec.burst_slots
        offset = 0
        if slack > 0:
            offset = splitmix64(link_seed ^ splitmix64(index * 8 + _SALT_BURST)) % (
                slack + 1
            )
        return offset <= phase < offset + self.spec.burst_slots

    def link_impairment(
        self, monitor: int, sender: int, start_slot: int
    ) -> Optional[str]:
        """The impairment hitting this link at ``start_slot``, if any.

        Checked in severity order: a burst window swallows the frame
        before the per-frame decode/corruption lotteries run.
        """
        spec = self.spec
        link_seed = self._link_seed(monitor, sender)
        if self._in_burst(link_seed, start_slot):
            return IMPAIRMENT_BURST_LOSS
        if spec.decode > 0.0 and (
            self._uniform(link_seed, start_slot, _SALT_DECODE) < spec.decode
        ):
            return IMPAIRMENT_DECODE_FAILURE
        if spec.corrupt > 0.0 and (
            self._uniform(link_seed, start_slot, _SALT_CORRUPT) < spec.corrupt
        ):
            return IMPAIRMENT_RTS_CORRUPT
        if spec.truncate > 0.0 and (
            self._uniform(link_seed, start_slot, _SALT_TRUNCATE) < spec.truncate
        ):
            return IMPAIRMENT_RTS_TRUNCATED
        return None

    def damage_wire(
        self, monitor: int, sender: int, start_slot: int, wire: bytes, reason: str
    ) -> bytes:
        """The damaged wire image the monitor actually received."""
        link_seed = self._link_seed(monitor, sender)
        draw = splitmix64(link_seed ^ splitmix64(start_slot * 8 + _SALT_DAMAGE))
        if reason == IMPAIRMENT_RTS_TRUNCATED:
            # Cut somewhere strictly inside the frame.
            keep = draw % max(len(wire) - 1, 1)
            return wire[:keep]
        # Flip 1-3 bytes at hash-chosen positions.
        damaged = bytearray(wire)
        flips = 1 + draw % 3
        for i in range(flips):
            position = splitmix64(draw + i) % len(damaged)
            mask = (splitmix64(draw + 101 + i) % 255) + 1  # never a 0 mask
            damaged[position] ^= mask
        return bytes(damaged)

    def deliver_rts(
        self,
        monitor: int,
        sender: int,
        start_slot: int,
        frame: Optional[RtsFrame],
    ) -> Tuple[Optional[RtsFrame], Optional[str]]:
        """Apply link faults to a frame the physics said was decodable.

        Returns ``(rts, impairment)``: the frame untouched when the link
        draws clean, else ``(None, reason)``.  Corruption/truncation go
        through the real wire codec — the frame is serialized, damaged,
        and re-decoded — so the quarantine path exercises exactly the
        :class:`~repro.mac.frames.FrameDecodeError` surface a real
        monitor would hit.  (In the astronomically unlikely event the
        damaged image still passes CRC + validation, the decoded frame
        is delivered: the monitor has no way to know.)
        """
        reason = self.link_impairment(monitor, sender, start_slot)
        if reason is None:
            return frame, None
        if (
            reason in (IMPAIRMENT_RTS_CORRUPT, IMPAIRMENT_RTS_TRUNCATED)
            and isinstance(frame, RtsFrame)
        ):
            wire = self.damage_wire(
                monitor, sender, start_slot, encode_rts(frame), reason
            )
            try:
                return decode_rts(wire), None
            except FrameDecodeError:
                return None, reason
        return None, reason
