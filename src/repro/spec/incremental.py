"""Streaming TCS correctness checking (the online counterpart of
:class:`repro.spec.checker.TCSChecker`).

The batch checker rebuilds the whole linearization graph from the recorded
history: O(txns^2) conflict-edge construction plus the O(txns^2)
``real_time_pairs`` sweep.  :class:`IncrementalTCSChecker` maintains the
same graph *online*, subscribing to a :class:`~repro.spec.history.History`
and updating per event, so a violation is reported at the exact event that
introduces it and a 100k-transaction run keeps full validation.

Three ideas make the update cheap:

* **Per-object conflict indexes** — each scheme supplies a
  :class:`~repro.core.certification.ConflictIndex` (mirroring the leaders'
  :class:`~repro.core.votecache.LeaderVoteCache` pattern) that reports, for
  a transaction entering the committed projection, exactly the conflict
  edges involving it, via version-range lookups instead of an all-pairs
  ``global_certify`` sweep (the pairwise scan survives as the oracle the
  indexes are tested against, in ``tests/helpers.py``).

* **A decided-frontier chain** — the real-time relation ``decide(a) ≺h
  certify(b)`` would contribute O(txns) edges per transaction if
  materialized directly.  Instead every commit decision appends a *frontier
  node* to a virtual chain; a committed transaction points at the frontier
  created by its decision, and receives an in-edge from the frontier that
  was current when it was certified.  Paths through the chain then encode
  exactly the real-time reachability, at O(1) amortized edges per decision.

* **Incremental cycle detection** — the graph keeps a topological order
  under online edge insertion with the Pearce–Kelly algorithm: an edge that
  respects the current order costs O(1); otherwise only the affected region
  between the two endpoints is re-ranked, and a forward search that reaches
  the edge's source yields the offending cycle as a concrete witness.

The verdict contract is the batch checker's :class:`CheckResult`: a witness
linearization when the history is correct, the offending cycle (restricted
to transaction ids) when it is not.  Like the batch checker's graph
construction, the online graph assumes the certification function is
distributive (requirement (1) of the paper); the batch checker remains the
oracle and ``tests/test_incremental_checker.py`` drives both on randomized
histories asserting identical verdicts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.certification import RETIRED, CertificationScheme
from repro.core.types import Decision, TxnId
from repro.spec.checker import CheckResult
from repro.spec.history import History, HistorySubscription


class _Frontier:
    """A node of the decided-frontier chain (identity-based, never a txn)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<frontier {self.index}>"


class _OnlineDag:
    """A DAG maintaining a topological order under online edge insertion.

    Pearce–Kelly: every node carries a unique integer rank forming a valid
    topological order.  Inserting an edge ``u -> v`` with ``rank(u) <
    rank(v)`` is O(1).  Otherwise only the *affected region* (nodes ranked
    between ``v`` and ``u``) is searched: a forward pass from ``v`` that
    reaches ``u`` proves a cycle (returned as the path ``v .. u``); else the
    forward/backward reachable sets swap ranks within the region, restoring
    the invariant while touching a provably minimal set of nodes.
    """

    def __init__(self) -> None:
        self.rank: Dict[Any, int] = {}
        self.out: Dict[Any, Set[Any]] = {}
        self.inc: Dict[Any, Set[Any]] = {}
        self.edge_count = 0
        # Monotonic rank source: len(rank) would recycle ranks after node
        # removal and break the total order.
        self._next_rank = 0

    def add_node(self, node: Any) -> None:
        self.rank[node] = self._next_rank
        self._next_rank += 1
        self.out[node] = set()
        self.inc[node] = set()

    def remove_nodes(self, nodes: List[Any]) -> None:
        """Remove a *rank-prefix* of the DAG (every edge goes from lower to
        higher rank, so in-edges of the removed set originate inside it and
        need no fix-up; only out-edges into survivors are unlinked)."""
        doomed = set(nodes)
        for node in nodes:
            for successor in self.out[node]:
                if successor not in doomed:
                    self.inc[successor].discard(node)
            self.edge_count -= len(self.out[node])
            del self.rank[node]
            del self.out[node]
            del self.inc[node]

    def add_edge(self, u: Any, v: Any) -> Optional[List[Any]]:
        """Insert ``u -> v``; return a cycle path ``[v, .., u]`` or None."""
        if u is v:
            return [u]
        if v in self.out[u]:
            return None
        if self.rank[u] < self.rank[v]:
            self.out[u].add(v)
            self.inc[v].add(u)
            self.edge_count += 1
            return None
        cycle = self._forward(v, u)
        if cycle is not None:
            return cycle
        self.out[u].add(v)
        self.inc[v].add(u)
        self.edge_count += 1
        self._reorder(u, v)
        return None

    def _forward(self, v: Any, u: Any) -> Optional[List[Any]]:
        """DFS from ``v`` within the region; a path to ``u`` is a cycle."""
        bound = self.rank[u]
        parents: Dict[Any, Any] = {v: None}
        stack = [v]
        while stack:
            node = stack.pop()
            for nxt in self.out[node]:
                if nxt is u:
                    path = [u, node]
                    while parents[node] is not None:
                        node = parents[node]
                        path.append(node)
                    path.reverse()  # v .. u; the new edge u -> v closes it
                    return path
                if nxt not in parents and self.rank[nxt] < bound:
                    parents[nxt] = node
                    stack.append(nxt)
        self._forward_visited = parents
        return None

    def _reorder(self, u: Any, v: Any) -> None:
        forward = self._forward_visited  # v and its descendants in the region
        floor = self.rank[v]
        backward: Set[Any] = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node in backward:
                continue
            backward.add(node)
            for prev in self.inc[node]:
                if prev not in backward and self.rank[prev] > floor:
                    stack.append(prev)
        affected = sorted(backward, key=self.rank.__getitem__) + sorted(
            forward, key=self.rank.__getitem__
        )
        slots = sorted(self.rank[node] for node in affected)
        for node, slot in zip(affected, slots):
            self.rank[node] = slot


class IncrementalTCSChecker:
    """Maintains the legal-linearization graph of a history online.

    Feed it either by :meth:`attach`-ing it to a :class:`History` (it
    subscribes to certify/decide/contradiction events, replaying anything
    already recorded) or by calling :meth:`observe_certify` /
    :meth:`observe_decide` directly.  After a violation the checker freezes:
    :attr:`violation` keeps the first failure, together with the 0-based
    index (:attr:`violation_at_event`) of the observed event that introduced
    it.
    """

    def __init__(
        self,
        scheme: CertificationScheme,
        history: Optional[History] = None,
        gc: bool = False,
        gc_interval: int = 256,
    ) -> None:
        if gc_interval < 1:
            raise ValueError("gc_interval must be >= 1")
        self.scheme = scheme
        self._conflicts = scheme.make_conflict_index()
        self._dag = _OnlineDag()
        self._birth: Dict[TxnId, Optional[_Frontier]] = {}
        self._payloads: Dict[TxnId, Any] = {}
        self._frontier: Optional[_Frontier] = None
        self._frontiers = 0
        # Streaming-run garbage collection (see `collect`).
        self._gc_enabled = gc
        self._gc_interval = gc_interval
        self._since_gc = 0
        self._decision_frontier: Dict[TxnId, int] = {}
        # Committed payloads retained for eventual ConflictIndex.retire
        # calls (populated only when gc is enabled, so non-GC runs do not
        # duplicate payload storage).
        self._gc_payloads: Dict[TxnId, Any] = {}
        self.txns_pruned = 0
        self.frontiers_pruned = 0
        self.watermark = -1  # last collection's prune horizon (frontier index)
        self.violation: Optional[CheckResult] = None
        self.violation_at_event: Optional[int] = None
        self.events_processed = 0
        self._history: Optional[History] = None
        self._subscription: Optional[HistorySubscription] = None
        if history is not None:
            self.attach(history)

    # ------------------------------------------------------------------
    # history subscription
    # ------------------------------------------------------------------
    def attach(self, history: History) -> "IncrementalTCSChecker":
        """Subscribe to ``history``, replaying events recorded before now.

        Contradictions are replayed *first*: the history does not record
        where they occurred, and the batch checker gives them priority, so
        a replayed checker must too (a live-attached one reports whichever
        violation genuinely happens first).
        """
        if self._history is not None:
            raise RuntimeError("checker is already attached to a history")
        self._history = history
        for txn, first, second in history.contradictions:
            self.observe_contradiction(txn, first, second)
        for event in history.events:
            if event.kind == "certify":
                self.observe_certify(event.txn, event.payload)
            else:
                self.observe_decide(event.txn, event.decision, payload=event.payload)
        self._subscription = history.subscribe(
            on_certify=self._on_certify,
            on_decide=self._on_decide,
            on_contradiction=self.observe_contradiction,
        )
        return self

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None
        self._history = None

    def _on_certify(self, txn: TxnId) -> None:
        self.observe_certify(txn, self._history.payload_of(txn))

    def _on_decide(self, txn: TxnId, decision: Decision) -> None:
        self.observe_decide(
            txn, decision, payload=self._history.decided_payload_of(txn)
        )

    # ------------------------------------------------------------------
    # event feed
    # ------------------------------------------------------------------
    def observe_certify(self, txn: TxnId, payload: Any) -> None:
        """Record ``certify(txn, payload)``: remember the decided frontier
        the transaction was certified under."""
        if self.violation is not None:
            return
        self.events_processed += 1
        self._birth[txn] = self._frontier
        self._payloads[txn] = payload

    def observe_decide(
        self, txn: TxnId, decision: Decision, payload: Any = None
    ) -> None:
        """Record the (first) ``decide(txn, decision)``.

        Commits enter the committed projection: the transaction becomes a
        graph node, its conflict edges come from the scheme's conflict
        index, its real-time edges from the frontier chain.  Any cycle is
        reported immediately as the violation witness.

        ``payload`` is the decide-time payload, when the history attached
        one: snapshot reads certify a placeholder marker and resolve their
        versioned read-only payload only when the serving replica answers,
        so the decide event — not the certify event — carries the payload
        the conflict analysis must use.
        """
        if self.violation is not None:
            return
        self.events_processed += 1
        birth = self._birth.pop(txn, None)
        if decision is not Decision.COMMIT:
            self._payloads.pop(txn, None)
            return
        certified = self._payloads.pop(txn, None)
        if payload is None:
            payload = certified
        dag = self._dag
        dag.add_node(txn)
        if birth is not None and dag.add_edge(birth, txn) is not None:
            raise AssertionError("frontier edges cannot close a cycle")  # pragma: no cover
        successors, predecessors = self._conflicts.register(txn, payload)
        for other in predecessors:
            if other is RETIRED:
                # A retired transaction must precede this one — consistent by
                # construction: retirement requires it decided before this
                # transaction was certified.
                continue
            cycle = dag.add_edge(other, txn)
            if cycle is not None:
                return self._fail_cycle(cycle)
        for other in successors:
            if other is RETIRED:
                # This transaction must precede a retired one, yet every
                # retired transaction decided before this one was certified:
                # an immediate conflict/real-time cycle.
                return self._fail_retired(txn)
            cycle = dag.add_edge(txn, other)
            if cycle is not None:
                return self._fail_cycle(cycle)
        # Advance the decided frontier: transactions certified from now on
        # are real-time successors of this one (O(1) edges per decision).
        frontier = _Frontier(self._frontiers)
        self._frontiers += 1
        dag.add_node(frontier)
        if self._frontier is not None:
            dag.add_edge(self._frontier, frontier)
        dag.add_edge(txn, frontier)
        self._frontier = frontier
        if self._gc_enabled:
            self._decision_frontier[txn] = frontier.index
            self._gc_payloads[txn] = payload
            self._since_gc += 1
            if self._since_gc >= self._gc_interval:
                self.collect()

    def observe_contradiction(self, txn: TxnId, first: Decision, second: Decision) -> None:
        """A contradictory decide: no linearization can contain both
        decisions for ``txn``, so the history is immediately incorrect."""
        if self.violation is not None:
            return
        self.events_processed += 1
        self.violation_at_event = self.events_processed - 1
        self.violation = CheckResult(
            ok=False,
            reason=(
                f"contradictory decisions externalised for {txn}: "
                f"{first.value} vs {second.value}"
            ),
            cycle=[txn],
        )

    def _fail_cycle(self, cycle: List[Any]) -> None:
        self.violation_at_event = self.events_processed - 1
        self.violation = CheckResult(
            ok=False,
            reason="no legal linearization: conflict/real-time cycle",
            cycle=[node for node in cycle if not isinstance(node, _Frontier)],
        )

    def _fail_retired(self, txn: TxnId) -> None:
        self.violation_at_event = self.events_processed - 1
        self.violation = CheckResult(
            ok=False,
            reason=(
                "no legal linearization: conflict/real-time cycle "
                "(certification orders the transaction before garbage-collected "
                "history that decided before it was certified)"
            ),
            cycle=[txn],
        )

    # ------------------------------------------------------------------
    # streaming-run garbage collection
    # ------------------------------------------------------------------
    def collect(self) -> int:
        """Prune graph state that can no longer participate in a violation;
        returns the number of nodes removed.

        A committed transaction ``X`` is *retirable* once every transaction
        certified before ``decide(X)`` has been decided: from then on, every
        transaction the checker will ever see was certified after
        ``decide(X)`` and is therefore a real-time successor of ``X``.  A
        future conflict edge *from* ``X`` adds nothing a cycle could use
        without also entering the retired region, and a future conflict edge
        *into* ``X`` ("new transaction must precede X") is by itself a
        conflict/real-time cycle — which the conflict indexes keep flagging
        after retirement via a compact per-object horizon (:data:`RETIRED`).

        Concretely: the *watermark* is the lowest birth-frontier index of
        any still-undecided transaction; transactions whose decision
        frontier is at or below it, and frontier nodes below it, may go.
        Because the Pearce–Kelly order directs every edge from lower to
        higher rank, pruning the maximal *rank prefix* of retirable nodes
        removes a region with no incoming edges — survivors need no rank or
        edge fix-up, and the invariants of the incremental cycle detection
        are untouched.

        Consequence of exactness: a transaction that is certified but
        *never* decided (an orphaned client submission, a request lost with
        its coordinator and never re-driven) pins the watermark at its
        certify point forever — everything committed since then must be
        retained, because the stuck transaction could still legally decide
        against it.  Collection silently degrades to retention from that
        point on; watch ``stats["watermark"]`` against
        ``stats["undecided"]`` (and keep sessions configured so nothing
        orphans) on truly unbounded runs.
        """
        self._since_gc = 0
        if self._frontier is None or self.violation is not None:
            return 0
        watermark = self._frontiers
        for frontier in self._birth.values():
            index = -1 if frontier is None else frontier.index
            if index < watermark:
                watermark = index
        self.watermark = watermark
        if watermark < 0:
            return 0
        dag = self._dag
        cut: Optional[int] = None
        for node, rank in dag.rank.items():
            if isinstance(node, _Frontier):
                keep = node is self._frontier or node.index >= watermark
            else:
                keep = self._decision_frontier.get(node, watermark + 1) > watermark
            if keep and (cut is None or rank < cut):
                cut = rank
        if cut is None:  # pragma: no cover - the current frontier is always kept
            return 0
        pruned = [node for node, rank in dag.rank.items() if rank < cut]
        if not pruned:
            return 0
        for node in pruned:
            if isinstance(node, _Frontier):
                self.frontiers_pruned += 1
                continue
            self.txns_pruned += 1
            self._decision_frontier.pop(node, None)
            self._conflicts.retire(node, self._gc_payloads.pop(node))
        dag.remove_nodes(pruned)
        return len(pruned)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.violation is None

    def linearization(self) -> List[TxnId]:
        """The committed transactions in the maintained topological order
        (a legal linearization whenever :attr:`ok` holds; with garbage
        collection enabled, the suffix of one — pruned transactions precede
        every survivor)."""
        rank = self._dag.rank
        return sorted(
            (node for node in rank if not isinstance(node, _Frontier)),
            key=rank.__getitem__,
        )

    def result(self) -> CheckResult:
        """The current verdict, under the batch checker's contract."""
        if self.violation is not None:
            return self.violation
        return CheckResult(ok=True, linearization=self.linearization())

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "events_processed": self.events_processed,
            "nodes": len(self._dag.rank),
            "edges": self._dag.edge_count,
            "txns_pruned": self.txns_pruned,
            "frontiers_pruned": self.frontiers_pruned,
            # GC health: the prune horizon of the last collection and the
            # certified-but-undecided count.  A watermark that stops
            # advancing while undecided stays > 0 means a stuck transaction
            # is pinning memory (see `collect`).
            "watermark": self.watermark,
            "undecided": len(self._birth),
        }
