"""TCS correctness checking (paper Section 2), online and after the fact.

A history ``h`` is *correct with respect to a certification function f* when
its committed projection has a *legal linearization*: a total order of the
committed transactions that (i) respects the real-time order (if ``t`` was
decided before ``t'`` was certified then ``t`` precedes ``t'``) and (ii) in
which every transaction's commit decision is what ``f`` computes over the
payloads of the transactions preceding it.  Because ``f`` is distributive
(requirement (1), which ``tests/test_properties.py`` checks for both shipped
schemes), such an order exists iff the graph with a *conflict edge* ``b ->
a`` whenever ``f({l_a}, l_b) = abort`` and a *real-time edge* ``a -> b``
whenever ``decide(a) ≺h certify(b)`` is acyclic; any topological order of
it is a legal linearization.

:class:`IncrementalTCSChecker` is the one checker the package ships.  It
subscribes to a :class:`~repro.spec.history.History` and maintains that
graph per event, so a violation is reported at the exact event that
introduces it and a 100k-transaction run keeps full validation; attached to
a finished history it replays it, which is how ``Cluster.check()`` and
``check_mode="final"`` reach their verdicts.  Building the graph from the
recorded history instead costs O(txns^2) conflict edges plus an O(txns^2)
real-time sweep; that batch construction survives only as the test oracle
(``tests/helpers.py``).

Four ideas make the update cheap and the state small:

* **Per-object conflict indexes** — each scheme supplies a
  :class:`~repro.core.certification.ConflictIndex` (mirroring the leaders'
  :class:`~repro.core.votecache.LeaderVoteCache` pattern) that reports, for
  a transaction entering the committed projection, exactly the conflict
  edges involving it, via version-range lookups instead of an all-pairs
  ``global_certify`` sweep (the pairwise scan survives as the oracle the
  indexes are tested against, in ``tests/helpers.py``).

* **A decided-frontier chain** — the real-time relation ``decide(a) ≺h
  certify(b)`` would contribute O(txns) edges per transaction if
  materialized directly.  Instead the commits decided between two
  certifications share one *frontier node*: the first certify after at
  least one new commit decision appends a frontier to a chain, with one
  edge into it from each commit decided since the previous frontier.  A
  committed transaction receives an in-edge from the frontier that was
  current when it was certified, so ``decide(a)`` precedes ``certify(b)``
  exactly when there is a path ``a -> F -> .. -> b``: one edge per
  decision, and one frontier per wave of decisions (a closed-loop client
  wave makes one, not one per commit).

* **Retirement behind the watermark** — a commit that every in-flight and
  future transaction follows in real time can take part in no future cycle
  except one the conflict indexes flag on their own, so it leaves the
  graph (:meth:`IncrementalTCSChecker.collect`): the checker holds what is
  in flight, not the whole run.

* **Incremental cycle detection** — the graph keeps a topological order
  under online edge insertion with the Pearce–Kelly algorithm: an edge that
  respects the current order costs O(1); otherwise only the affected region
  between the two endpoints is re-ranked, and a forward search that reaches
  the edge's source yields the offending cycle as a concrete witness.

The verdict is a :class:`CheckResult`: a witness linearization when the
history is correct, the offending cycle (restricted to transaction ids)
when it is not.  ``tests/test_incremental_checker.py`` drives the checker
and the batch oracle on randomized histories asserting identical verdicts,
and the retiring checker against one that keeps everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.certification import RETIRED, CertificationScheme
from repro.core.types import Decision, TxnId
from repro.spec.history import History, HistorySubscription


@dataclass
class CheckResult:
    """Outcome of a correctness check."""

    ok: bool
    reason: str = ""
    linearization: List[TxnId] = field(default_factory=list)
    cycle: List[TxnId] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


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
        # The nodes by rank: ``order[r - base]`` has rank ``r``.  The ranks
        # are always exactly ``base .. base + len(order) - 1``: a new node
        # takes the next one, a reorder permutes the slots it touches, and
        # only rank prefixes are removed.
        self.order: List[Any] = []
        self.base = 0

    def add_node(self, node: Any) -> None:
        self.rank[node] = self.base + len(self.order)
        self.order.append(node)
        self.out[node] = set()
        self.inc[node] = set()

    def remove_prefix(self, count: int) -> List[Any]:
        """Remove and return the ``count`` lowest-ranked nodes (every edge
        goes from lower to higher rank, so in-edges of a rank prefix
        originate inside it and need no fix-up; only out-edges into
        survivors are unlinked)."""
        doomed = self.order[:count]
        del self.order[:count]
        self.base += count
        out, inc = self.out, self.inc
        for node in doomed:
            successors = out[node]
            for successor in successors:
                if successor in inc:  # not removed already
                    inc[successor].discard(node)
            self.edge_count -= len(successors)
            del self.rank[node], out[node], inc[node]
        return doomed

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
        order, base = self.order, self.base
        for node, slot in zip(affected, slots):
            self.rank[node] = slot
            order[slot - base] = node


class IncrementalTCSChecker:
    """Maintains the legal-linearization graph of a history online.

    The package's only TCS checker: the runner's ``online`` mode attaches it
    before the run, ``Cluster.check()`` (and so ``final``) attaches it to the
    finished history and detaches it after reading :meth:`result`.  Like the
    batch oracle in ``tests/helpers.py``, the graph assumes the scheme is
    distributive (requirement (1)), which ``tests/test_properties.py``
    checks for both shipped schemes.

    Feed it either by :meth:`attach`-ing it to a :class:`History` (it
    subscribes to certify/decide/contradiction events, replaying anything
    already recorded) or by calling :meth:`observe_certify` /
    :meth:`observe_decide` directly.  After a violation the checker freezes:
    :attr:`violation` keeps the first failure, together with the 0-based
    index (:attr:`violation_at_event`) of the observed event that introduced
    it.

    Every ``gc_interval`` commit decisions it retires settled history
    (:meth:`collect`), so its state is bounded by what is in flight; the
    verdict, its reason and the event it is reported at do not depend on
    retirement.  ``gc=False`` never retires, for tests that compare the
    whole witness linearization with the batch oracle.
    """

    def __init__(
        self,
        scheme: CertificationScheme,
        history: Optional[History] = None,
        gc: bool = True,
        gc_interval: int = 256,
    ) -> None:
        if gc_interval < 1:
            raise ValueError("gc_interval must be >= 1")
        self.scheme = scheme
        self._conflicts = scheme.make_conflict_index()
        self._dag = _OnlineDag()
        self._birth: Dict[TxnId, Optional[_Frontier]] = {}
        self._payloads: Dict[TxnId, Any] = {}
        # The latest frontier, and the commits decided since it was
        # appended: the next frontier (index `_frontiers`) follows them.
        self._frontier: Optional[_Frontier] = None
        self._frontiers = 0
        self._undelimited: List[TxnId] = []
        # Per live commit, the index of the frontier that follows it and the
        # payload ConflictIndex.retire needs (see `collect`).
        self._decision_frontier: Dict[TxnId, int] = {}
        self._gc_payloads: Dict[TxnId, Any] = {}
        self._gc_enabled = gc
        self._gc_interval = gc_interval
        self._since_gc = 0
        self.txns_pruned = 0
        self.frontiers_pruned = 0
        self.watermark = -1  # the prune horizon (frontier index) reached so far
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
        where they occurred, and the batch oracle gives them priority, so
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
        the transaction was certified under (appending it first if commits
        were decided since the latest one)."""
        if self.violation is not None:
            return
        self.events_processed += 1
        if self._undelimited:
            self._append_frontier()
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
                # a conflict/real-time cycle through history no longer
                # stored, so the witness is this transaction alone.
                return self._fail_cycle([txn])
            cycle = dag.add_edge(txn, other)
            if cycle is not None:
                return self._fail_cycle(cycle)
        # Transactions certified from now on are real-time successors of
        # this one: the next frontier follows it.
        self._undelimited.append(txn)
        self._decision_frontier[txn] = self._frontiers
        self._gc_payloads[txn] = payload
        self._since_gc += 1
        if self._since_gc >= self._gc_interval:
            self.collect()

    def _append_frontier(self) -> None:
        """Append the frontier that follows the commits decided since the
        latest one (an O(1) edge each, none of which can close a cycle: the
        new node is the highest-ranked and has no out-edges)."""
        frontier = _Frontier(self._frontiers)
        self._frontiers += 1
        dag = self._dag
        dag.add_node(frontier)
        if self._frontier is not None:
            dag.add_edge(self._frontier, frontier)
        for txn in self._undelimited:
            dag.add_edge(txn, frontier)
        self._undelimited.clear()
        self._frontier = frontier

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

    # ------------------------------------------------------------------
    # retirement
    # ------------------------------------------------------------------
    def collect(self) -> int:
        """Retire graph state that can no longer take part in a violation;
        returns the number of nodes removed (always 0 with ``gc=False``).

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
        any still-undecided transaction, capped at the latest frontier's;
        commits whose frontier is at or below it, and frontiers below it,
        may go (commits decided since the latest frontier have none yet, so
        they stay until a certify appends it).  A pass whose watermark has
        not advanced since the last one returns at once: every commit
        decided since then is followed by a frontier above that watermark,
        so nothing new became retirable.  Otherwise, because the
        Pearce–Kelly order directs every edge from lower to higher rank,
        the maximal *rank prefix* of retirable nodes is cut — walking the
        ranks up to the first node that stays — which removes a region with
        no incoming edges:
        survivors need no rank or edge fix-up, and the invariants of the
        incremental cycle detection are untouched.

        Consequence of exactness: a transaction that is certified but
        *never* decided (an orphaned client submission, a request lost with
        its coordinator and never re-driven) pins the watermark at its
        certify point forever — everything committed since then must be
        retained, because the stuck transaction could still legally decide
        against it.  Retirement then stops (each pass costs a scan of the
        undecided transactions and nothing more); watch
        ``stats["watermark"]`` against ``stats["undecided"]`` (and keep
        retries configured so nothing orphans) on truly unbounded runs.
        """
        self._since_gc = 0
        if not self._gc_enabled or self.violation is not None:
            return 0
        watermark = self._frontiers - 1
        for frontier in self._birth.values():
            if frontier is None:
                watermark = -1
                break
            if frontier.index < watermark:
                watermark = frontier.index
        if watermark <= self.watermark:
            return 0
        self.watermark = watermark
        dag = self._dag
        settled = self._decision_frontier
        count = 0
        # The latest frontier stays (its index is at least the watermark),
        # so the walk stops inside the graph.
        for node in dag.order:
            if node in settled:
                if settled[node] > watermark:
                    break
            elif node.index >= watermark:  # a frontier
                break
            count += 1
        for node in dag.remove_prefix(count):
            if node not in settled:
                self.frontiers_pruned += 1
                continue
            self.txns_pruned += 1
            del settled[node]
            self._conflicts.retire(node, self._gc_payloads.pop(node))
        return count

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.violation is None

    def linearization(self) -> List[TxnId]:
        """The committed transactions in the maintained topological order:
        a legal linearization whenever :attr:`ok` holds — with retirement,
        of the suffix not yet retired (retired transactions precede every
        survivor)."""
        return [node for node in self._dag.order if not isinstance(node, _Frontier)]

    def result(self) -> CheckResult:
        """The current verdict: a witness linearization or the violation."""
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
            # Retirement health: the prune horizon reached so far and the
            # certified-but-undecided count.  A watermark that stops
            # advancing while undecided stays > 0 means a stuck transaction
            # is pinning memory (see `collect`).
            "watermark": self.watermark,
            "undecided": len(self._birth),
        }
