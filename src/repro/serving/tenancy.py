"""Tenancy for the serving gateway: tokens, namespaces, datasets.

The model mirrors a schema-per-tenant warehouse:

* every session authenticates with a **bearer token**; the
  :class:`TenantDirectory` maps it to a tenant name, and that name —
  never the token — scopes everything else;
* each tenant owns a **namespace** of named datasets; a bare dataset
  name (``"hospital"``) resolves inside the caller's own namespace
  only;
* cross-tenant reads use a qualified ``"owner/name"`` reference and
  succeed only when the owner registered the dataset as ``shared`` or
  granted the caller explicitly — anything else is a typed
  :class:`~repro.exceptions.AuthError`, raised in the gateway's
  dispatch layer before a handler ever sees the request.

A :class:`Dataset` bundles the resident :class:`~repro.core.system
.PrismSystem` (outsourced once at registration) with the *single*
:class:`~repro.api.client.PrismClient` every session's submissions
funnel through — which is what lets queries from different tenants
against the same shared dataset coalesce into one fused batch tick.
"""

from __future__ import annotations

import threading

from repro.exceptions import AuthError, QueryError
from repro.network.host import reap_processes


class TenantDirectory:
    """Bearer-token → tenant-name authentication table."""

    def __init__(self, tokens: dict | None = None):
        #: ``{token: tenant}``; tokens are opaque strings.
        self._tokens = dict(tokens or {})

    def add(self, token: str, tenant: str) -> None:
        self._tokens[str(token)] = str(tenant)

    def authenticate(self, token) -> str:
        """The tenant owning ``token``.

        Raises:
            AuthError: unknown or missing token.
        """
        tenant = self._tokens.get(token)
        if tenant is None:
            raise AuthError("unknown or missing tenant token")
        return tenant

    @property
    def tenants(self) -> list:
        return sorted(set(self._tokens.values()))


class Dataset:
    """One registered dataset: a resident system + its shared funnel."""

    def __init__(self, owner: str, name: str, system, client,
                 shared: bool = False, grants=(), processes=()):
        self.owner = owner
        self.name = name
        self.system = system
        #: The one PrismClient all sessions' submissions go through.
        self.client = client
        self.shared = bool(shared)
        self.grants = frozenset(grants)
        #: Forked entity-host processes backing this dataset, if any.
        self.processes = list(processes)
        self._queries_by_tenant: dict[str, int] = {}
        self._lock = threading.Lock()

    def accessible_by(self, tenant: str) -> bool:
        return (tenant == self.owner or self.shared
                or tenant in self.grants)

    def count_query(self, tenant: str, n: int = 1) -> None:
        with self._lock:
            self._queries_by_tenant[tenant] = (
                self._queries_by_tenant.get(tenant, 0) + n)

    @property
    def ref(self) -> str:
        return f"{self.owner}/{self.name}"

    @property
    def stats(self) -> dict:
        with self._lock:
            by_tenant = dict(self._queries_by_tenant)
        scheduler = self.client.stats.get("scheduler", {})
        fusion = self.client.stats.get("fusion", {})
        return {
            "owner": self.owner,
            "shared": self.shared,
            "grants": sorted(self.grants),
            "queries_by_tenant": by_tenant,
            "scheduler": dict(scheduler),
            "fusion": dict(fusion),
            "pool_health": self.system.pool_health()["status"],
        }

    def close(self) -> None:
        self.client.close()
        self.system.close()
        reap_processes(self.processes)
        self.processes.clear()


class DatasetRegistry:
    """Named datasets keyed ``(owner-tenant, name)``.

    Resolution and authorization happen together in :meth:`resolve`, so
    the dispatch layer makes exactly one call per request and handlers
    only ever see datasets the caller may touch.
    """

    def __init__(self):
        self._datasets: dict[tuple[str, str], Dataset] = {}
        self._lock = threading.Lock()

    def register(self, dataset: Dataset) -> None:
        """Add a dataset under its owner's namespace.

        Raises:
            QueryError: the owner already has a dataset of that name.
        """
        key = (dataset.owner, dataset.name)
        with self._lock:
            if key in self._datasets:
                raise QueryError(
                    f"tenant {dataset.owner!r} already has a dataset "
                    f"named {dataset.name!r}")
            self._datasets[key] = dataset

    def resolve(self, tenant: str, ref: str) -> Dataset:
        """The dataset ``ref`` names, if ``tenant`` may use it.

        ``ref`` is either a bare name (the caller's own namespace) or
        ``"owner/name"`` for a cross-tenant reference.

        Raises:
            AuthError: the dataset exists but ``tenant`` has no access
                (not shared with it, not granted).  Deliberately raised
                *before* existence is revealed for foreign namespaces:
                probing another tenant's namespace for a missing name
                gets the same AuthError as a real-but-refused dataset.
            QueryError: no such dataset in the caller's own namespace.
        """
        owner, _, name = str(ref).rpartition("/")
        if not owner:
            owner = tenant
        with self._lock:
            dataset = self._datasets.get((owner, name))
        if owner != tenant:
            if dataset is None or not dataset.accessible_by(tenant):
                raise AuthError(
                    f"tenant {tenant!r} may not access dataset "
                    f"{owner}/{name}")
            return dataset
        if dataset is None:
            raise QueryError(
                f"tenant {tenant!r} has no dataset named {name!r}")
        return dataset

    def visible_to(self, tenant: str) -> list:
        """Refs ``tenant`` may query: its own + shared/granted foreign."""
        with self._lock:
            datasets = list(self._datasets.values())
        refs = []
        for dataset in datasets:
            if dataset.owner == tenant:
                refs.append(dataset.name)
            elif dataset.accessible_by(tenant):
                refs.append(dataset.ref)
        return sorted(refs)

    def all(self) -> list:
        with self._lock:
            return list(self._datasets.values())

    def close(self) -> None:
        for dataset in self.all():
            dataset.close()
        with self._lock:
            self._datasets.clear()
