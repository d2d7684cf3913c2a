"""Device-closed routing of arriving rows onto gateway workers.

Temporal detection is the one stateful part of online scoring, and its
state is keyed on the first-party cookie and the source address.  For N
workers to score one arrival stream in parallel *and* reproduce the
single-worker verdicts exactly, every row of a given cookie and every row
of a given address must be scored by the worker holding that key's state.
The :class:`DeviceRouter` enforces exactly that invariant: it pins each
device key (cookie or address string) to one worker and routes every
arriving micro-batch so that no key's rows ever split across workers.

Two ways to build one:

* :meth:`DeviceRouter.from_table` — the replay/serving path: derive the
  pins from the device-closed union-find partition the sharded batch
  classifier already uses (:func:`repro.core.columnar.partition_rows_by_device`
  over the corpus table).  Every key is pre-pinned consistently, routing
  is a pure lookup, and no migrations ever occur.
* :class:`DeviceRouter` with no table — the live-traffic path: keys are
  pinned to the least-loaded worker when first seen.  When a later row
  proves two keys pinned to *different* workers belong to one device (a
  cookie reappearing from a new address, say), the router merges them
  deterministically and reports :class:`KeyMigration` records so the
  gateway can move the affected temporal state between workers before the
  batch is dispatched — preserving exactness even under online merges.

Rows with neither key carry no temporal state and are sprayed
round-robin.  Routing is per batch, before dispatch, so a batch's rows
that share a key (or are linked through one) always land on one worker
even when the link is first discovered inside that batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnarTable, partition_rows_by_device

#: Device-key kinds a router pins (also the temporal state's key kinds).
KEY_KINDS = ("cookie", "ip")


@dataclass(frozen=True)
class KeyMigration:
    """One device key whose pinned worker changed during routing.

    The gateway must move the key's temporal seen-state from ``source`` to
    ``target`` before dispatching the batch that triggered the merge;
    :meth:`repro.serve.DetectionGateway._migrate` does.
    """

    kind: str  # "cookie" | "ip"
    key: str
    source: int
    target: int


class DeviceRouter:
    """Pins device keys to workers; routes batches device-closed."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        #: (kind, key string) -> worker index
        self._pins: Dict[Tuple[str, str], int] = {}
        #: rows routed per worker — the balance target for new components
        self._loads: List[int] = [0] * self.workers
        self._keyless_cursor = 0

    @classmethod
    def from_table(cls, table: ColumnarTable, workers: int) -> "DeviceRouter":
        """A router whose pins reproduce the batch classifier's partition.

        Runs the device-closed union-find sharding over *table* (the same
        :func:`partition_rows_by_device` the sharded batch pipeline uses)
        and pins every cookie/address of partition *w* to worker *w*.  A
        replay of the same store through a gateway built on this router
        routes without ever migrating state, and its per-worker row groups
        are exactly the batch classifier's shards.
        """

        router = cls(workers)
        for worker, rows in enumerate(partition_rows_by_device(table, workers)):
            for kind, codes, values in (
                ("cookie", table.cookie_codes, table.cookie_values),
                ("ip", table.ip_codes, table.ip_values),
            ):
                present = codes[rows]
                for code in np.unique(present[present >= 0]).tolist():
                    key = values[code]
                    if key:
                        router._pins[(kind, key)] = worker
            router._loads[worker] += int(rows.size)
        return router

    # -- introspection ---------------------------------------------------------

    @property
    def pinned_keys(self) -> int:
        """How many device keys currently have a worker assignment."""

        return len(self._pins)

    def worker_of(self, kind: str, key: str) -> Optional[int]:
        """The worker *key* is pinned to, or ``None`` if unseen."""

        return self._pins.get((kind, key))

    # -- checkpointing ---------------------------------------------------------

    def export_state(self) -> Dict:
        """The router's pins, loads and cursor.

        ``pins`` is the live (kind, key) → worker dict, not a copy: it only
        grows, in first-pin order, and a migration repins a key in place —
        the checkpointer writes the pins past its mark plus the moved ones.
        """

        return {
            "workers": self.workers,
            "pins": self._pins,
            "loads": list(self._loads),
            "keyless_cursor": self._keyless_cursor,
        }

    def restore_state(self, state: Dict) -> None:
        """Adopt routing state exported by :meth:`export_state`."""

        if int(state["workers"]) != self.workers:
            raise ValueError(
                f"checkpointed router has {state['workers']} workers; "
                f"this router has {self.workers}"
            )
        self._pins = dict(state["pins"])
        self._loads = [int(load) for load in state["loads"]]
        self._keyless_cursor = int(state["keyless_cursor"])

    # -- routing ---------------------------------------------------------------

    def route(
        self, batch: ColumnarTable
    ) -> Tuple[List[np.ndarray], List[KeyMigration]]:
        """Assign every row of *batch* to a worker, device-closed.

        Returns ``(assignments, migrations)``: one sorted row-index array
        per worker (possibly empty; together they cover the batch exactly
        once), plus the state migrations the merges in this batch require.
        The batch's rows are grouped into connected components over their
        (cookie, address) keys first — a within-batch union-find, so links
        first revealed by this batch still route the whole component to
        one worker — and each component lands on:

        * the one worker its keys are pinned to, when they agree;
        * the pinned worker holding most of its keys (ties: lowest index)
          when a merge is discovered, repinning the rest and emitting a
          :class:`KeyMigration` per moved key;
        * the least-loaded worker (ties: lowest index) when no key has
          been seen before.
        """

        if batch.cookie_codes is None or batch.ip_codes is None:
            raise ValueError("routing requires batches with request metadata")
        n = batch.n_rows
        if self.workers == 1 or n == 0:
            self._loads[0] += n
            return (
                [np.arange(n, dtype=np.int64)]
                + [np.empty(0, dtype=np.int64) for _ in range(self.workers - 1)],
                [],
            )

        # Decode each row's usable keys once (falsy strings track nothing,
        # matching the temporal detector's guard).
        cookie_codes = batch.cookie_codes
        ip_codes = batch.ip_codes
        cookie_values = batch.cookie_values
        ip_values = batch.ip_values
        row_keys: List[Tuple[Tuple[str, str], ...]] = []
        for row in range(n):
            keys = []
            code = int(cookie_codes[row])
            if code >= 0:
                value = cookie_values[code]
                if value:
                    keys.append(("cookie", value))
            code = int(ip_codes[row])
            if code >= 0:
                value = ip_values[code]
                if value:
                    keys.append(("ip", value))
            row_keys.append(tuple(keys))

        # Within-batch union-find over the keys, in first-occurrence order.
        parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

        def find(node: Tuple[str, str]) -> Tuple[str, str]:
            root = node
            while parent[root] is not root:
                root = parent[root]
            while parent[node] is not root:  # path compression
                parent[node], node = root, parent[node]
            return root

        key_order: List[Tuple[str, str]] = []
        for keys in row_keys:
            for key in keys:
                if key not in parent:
                    parent[key] = key
                    key_order.append(key)
            if len(keys) == 2:
                root_a, root_b = find(keys[0]), find(keys[1])
                if root_a is not root_b:
                    parent[root_b] = root_a

        members: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        for key in key_order:
            members.setdefault(find(key), []).append(key)
        component_rows: Dict[Tuple[str, str], List[int]] = {}
        keyless_rows: List[int] = []
        for row, keys in enumerate(row_keys):
            if keys:
                component_rows.setdefault(find(keys[0]), []).append(row)
            else:
                keyless_rows.append(row)

        assignment = np.empty(n, dtype=np.int64)
        migrations: List[KeyMigration] = []
        # Components resolve in first-row order, so assignment, pinning and
        # load accounting are deterministic for a given arrival order.
        for root in sorted(component_rows, key=lambda root: component_rows[root][0]):
            keys = members[root]
            pinned: Dict[int, int] = {}
            for key in keys:
                worker = self._pins.get(key)
                if worker is not None:
                    pinned[worker] = pinned.get(worker, 0) + 1
            if not pinned:
                target = min(range(self.workers), key=lambda w: (self._loads[w], w))
            else:
                target = min(pinned, key=lambda w: (-pinned[w], w))
            for key in keys:
                worker = self._pins.get(key)
                if worker is not None and worker != target:
                    migrations.append(
                        KeyMigration(kind=key[0], key=key[1], source=worker, target=target)
                    )
                self._pins[key] = target
            rows = component_rows[root]
            assignment[rows] = target
            self._loads[target] += len(rows)
        for row in keyless_rows:
            assignment[row] = self._keyless_cursor % self.workers
            self._loads[assignment[row]] += 1
            self._keyless_cursor += 1

        return (
            [np.nonzero(assignment == worker)[0] for worker in range(self.workers)],
            migrations,
        )
