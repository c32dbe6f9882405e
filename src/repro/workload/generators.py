"""Workload generators for the benchmark harness.

All generators are deterministic given a seed and produce
:class:`TransactionSpec` values — abstract descriptions of the keys a
transaction reads and writes — which the store's optimistic executor turns
into certification payloads against the current committed state.
"""

from __future__ import annotations

import random
import re
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TransactionSpec:
    """Abstract transaction: keys read and key/value pairs written."""

    reads: Tuple[str, ...]
    writes: Tuple[Tuple[str, object], ...]
    label: str = ""

    def body(self) -> Callable:
        """Build an executor body that performs these operations."""

        def run(ctx):
            for key in self.reads:
                ctx.read(key)
            for key, value in self.writes:
                ctx.write(key, value)
            return self.label

        return run


_ABSENT = object()


class KeySpaceSeeds(Mapping):
    """The version-zero seeds of the key space ``key-0 .. key-(n-1)``, all
    0, answered by parsing the name: it equals
    ``{f"key-{i}": 0 for i in range(num_keys)}`` but builds no key string,
    so a run's store and read engines share it by reference and pay nothing
    per key.  A name is in it only in that dict's spelling of its index:
    ASCII digits, no sign, padding, underscore or leading zero.
    """

    __slots__ = ("num_keys",)

    _match = re.compile("key-(0|[1-9][0-9]*)").fullmatch

    def __init__(self, num_keys: int) -> None:
        self.num_keys = num_keys

    def get(self, key: object, default: object = None) -> object:
        try:
            match = self._match(key)
            if match is not None and int(match[1]) < self.num_keys:
                return 0
        except (TypeError, ValueError):  # not a string; more digits than int() takes
            pass
        return default

    def __getitem__(self, key: object) -> object:
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        return self.get(key, _ABSENT) is not _ABSENT

    def __iter__(self) -> Iterator[str]:
        return (f"key-{index}" for index in range(self.num_keys))

    def __len__(self) -> int:
        return self.num_keys


class UniformKeyGenerator:
    """Keys drawn uniformly from ``key-0 .. key-(n-1)``."""

    def __init__(self, num_keys: int, seed: int = 0, prefix: str = "key") -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        self.num_keys = num_keys
        self.prefix = prefix
        self.rng = random.Random(seed)
        # One key string per key index, made on first draw and then shared
        # by every transaction that touches the key (and by the payloads a
        # run keeps); a list indexed by key costs no call per draw.
        self._names: List[Optional[str]] = [None] * num_keys

    def key(self) -> str:
        index = self.rng.randrange(self.num_keys)
        name = self._names[index]
        if name is None:
            name = self._names[index] = f"{self.prefix}-{index}"
        return name

    def keys(self, count: int) -> List[str]:
        """``count`` distinct keys (or as many as the key space allows)."""
        chosen: List[str] = []
        seen = set()
        attempts = 0
        while len(chosen) < min(count, self.num_keys) and attempts < 50 * count:
            key = self.key()
            attempts += 1
            if key not in seen:
                seen.add(key)
                chosen.append(key)
        return chosen


class ZipfianKeyGenerator:
    """Zipfian-skewed key access (higher ``theta`` = more contention)."""

    def __init__(
        self, num_keys: int, theta: float = 0.9, seed: int = 0, prefix: str = "key"
    ) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.num_keys = num_keys
        self.theta = theta
        self.prefix = prefix
        self.rng = random.Random(seed)
        # Shared key strings, as in UniformKeyGenerator.
        self._names: List[Optional[str]] = [None] * num_keys
        # The cumulative distribution, one double per key: the array holds
        # each rank's weight until the running sum overwrites it.
        cumulative = self._cumulative = array("d", [0.0]) * num_keys
        for rank in range(num_keys):
            cumulative[rank] = 1.0 / ((rank + 1) ** theta)
        total = sum(cumulative)
        acc = 0.0
        for rank in range(num_keys):
            acc += cumulative[rank] / total
            cumulative[rank] = acc

    def key(self) -> str:
        # The first rank whose cumulative weight reaches the draw (the last
        # rank if rounding leaves the table short of it).
        rank = bisect_left(self._cumulative, self.rng.random(), 0, self.num_keys - 1)
        name = self._names[rank]
        if name is None:
            name = self._names[rank] = f"{self.prefix}-{rank}"
        return name

    def keys(self, count: int) -> List[str]:
        chosen: List[str] = []
        seen = set()
        attempts = 0
        while len(chosen) < min(count, self.num_keys) and attempts < 50 * count + 100:
            key = self.key()
            attempts += 1
            if key not in seen:
                seen.add(key)
                chosen.append(key)
        return chosen


class ReadWriteWorkload:
    """YCSB-style transactions: read ``reads_per_txn`` keys, update a subset.

    ``read_ratio`` mixes in read-only transactions (YCSB-B/C style): each
    draw is read-only with that probability, and a read-only transaction
    reads a *single* key (a point lookup), which keeps it single-shard and
    therefore eligible for the snapshot-read fast path.  At the default
    ``read_ratio=0.0`` no ratio draw happens at all, so the RNG stream — and
    with it every existing history digest — is unchanged.
    """

    def __init__(
        self,
        key_generator,
        reads_per_txn: int = 3,
        writes_per_txn: int = 1,
        seed: int = 0,
        read_ratio: float = 0.0,
    ) -> None:
        if writes_per_txn > reads_per_txn:
            raise ValueError("writes_per_txn must not exceed reads_per_txn")
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        self.keys = key_generator
        self.reads_per_txn = reads_per_txn
        self.writes_per_txn = writes_per_txn
        self.read_ratio = read_ratio
        self.rng = random.Random(seed)
        self._counter = 0

    def next(self) -> TransactionSpec:
        self._counter += 1
        if self.read_ratio > 0.0 and self.rng.random() < self.read_ratio:
            key = self.keys.keys(1)[0]
            return TransactionSpec(reads=(key,), writes=(), label=f"ro-{self._counter}")
        keys = self.keys.keys(self.reads_per_txn)
        written = keys[: self.writes_per_txn]
        writes = tuple((key, f"v{self._counter}") for key in written)
        return TransactionSpec(reads=tuple(keys), writes=writes, label=f"rw-{self._counter}")

    def bodies(self, count: int) -> List[Callable]:
        """The executor bodies of the next ``count`` transactions."""
        return [self.next().body() for _ in range(count)]


class ClosedLoopDriver:
    """Closed-loop client sessions with think times over a transactional store.

    Models ``sessions`` interactive clients: each keeps exactly one
    transaction in flight, and after its decision *thinks* for an
    exponentially distributed virtual time (mean ``think_time`` message
    delays) before submitting the next body from the shared stream.  All
    pacing runs on the simulation clock via the cluster's scheduler, so runs
    are deterministic in the seed; contrast with the default batch driver,
    which applies open pressure in fixed-size certification waves.

    ``bodies`` is any iterable, a generator included: the next body is
    pulled when a session submits it, so a run holds the bodies in flight,
    not the whole stream.  ``store`` is any
    :class:`repro.store.executor.TransactionalStore`-shaped object
    (``submit_async`` plus a ``cluster`` exposing ``scheduler`` and
    ``run``).
    """

    def __init__(
        self,
        store,
        bodies: Iterable[Callable],
        sessions: int = 1,
        think_time: float = 0.0,
        seed: int = 0,
    ) -> None:
        if sessions < 1:
            raise ValueError("need at least one closed-loop session")
        if think_time < 0:
            raise ValueError("think_time must be >= 0")
        self.store = store
        self._bodies = iter(bodies)
        self.sessions = sessions
        self.think_time = think_time
        self.rng = random.Random(seed)
        self.completed = 0

    def _think(self) -> float:
        if self.think_time <= 0:
            return 0.0
        return self.rng.expovariate(1.0 / self.think_time)

    def _submit_next(self) -> None:
        body = next(self._bodies, None)
        if body is None:
            return
        self.store.submit_async(body, on_decided=self._on_decided)

    def _on_decided(self, outcome) -> None:
        self.completed += 1
        scheduler = self.store.cluster.scheduler
        think = self._think()
        if think > 0:
            scheduler.schedule_at(scheduler.now + think, self._submit_next)
        else:
            self._submit_next()

    def run(self, max_events: int = 1_000_000) -> int:
        """Prime the sessions and run the simulation to completion; returns
        the number of transactions decided."""
        for _ in range(self.sessions):
            self._submit_next()
        self.store.cluster.run(max_events=max_events)
        return self.completed


class BankWorkload:
    """Balance transfers between accounts (read two accounts, write both)."""

    def __init__(
        self,
        num_accounts: int = 16,
        initial_balance: int = 100,
        seed: int = 0,
        hot_fraction: float = 0.0,
    ) -> None:
        if num_accounts < 2:
            raise ValueError("need at least two accounts")
        self.num_accounts = num_accounts
        self.initial_balance = initial_balance
        self.hot_fraction = hot_fraction
        self.rng = random.Random(seed)
        self._counter = 0
        self._accounts = [f"account-{index}" for index in range(num_accounts)]

    def account(self, index: int) -> str:
        return self._accounts[index]

    def initial_state(self) -> Dict[str, int]:
        return {self.account(i): self.initial_balance for i in range(self.num_accounts)}

    def _pick_account(self) -> int:
        if self.hot_fraction and self.rng.random() < self.hot_fraction:
            return 0
        return self.rng.randrange(self.num_accounts)

    def next_transfer(self, amount: Optional[int] = None) -> Callable:
        """An executor body moving ``amount`` between two random accounts."""
        self._counter += 1
        src = self._pick_account()
        dst = self._pick_account()
        while dst == src:
            dst = self.rng.randrange(self.num_accounts)
        amount = amount if amount is not None else self.rng.randint(1, 10)

        def transfer(ctx):
            source_balance = ctx.read(self.account(src)) or 0
            target_balance = ctx.read(self.account(dst)) or 0
            moved = min(amount, source_balance)
            ctx.write(self.account(src), source_balance - moved)
            ctx.write(self.account(dst), target_balance + moved)
            return moved

        return transfer

    def batch(self, count: int) -> List[Callable]:
        return [self.next_transfer() for _ in range(count)]

    def total_balance(self, store) -> int:
        return sum(
            store.value_of(self.account(i)) or 0 for i in range(self.num_accounts)
        )
