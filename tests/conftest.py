"""Shared fixtures: the paper's running example (Tables 1–3) and helpers."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro import Domain, PrismSystem, Relation


def _live_children() -> list[int]:
    """Pids of this process's children that have not exited."""
    if not os.path.isdir("/proc/self"):
        return [child.pid for child in multiprocessing.active_children()]
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                state, ppid = stat.read().rpartition(")")[2].split()[:2]
        except (OSError, ValueError):
            continue  # exited while we looked
        if int(ppid) == me and state != "Z":
            found.append(int(entry))
    return found


@pytest.fixture(scope="session", autouse=True)
def nothing_left_behind():
    """Fail the session if it leaves a child process or a non-daemon
    thread running once every test is done (after a short grace period
    for teardowns still finishing)."""
    yield
    deadline = time.monotonic() + 5.0
    while True:
        multiprocessing.active_children()  # joins exited children
        children = _live_children()
        threads = [thread.name for thread in threading.enumerate()
                   if not thread.daemon
                   and thread is not threading.main_thread()]
        if not (children or threads) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not children and not threads, (
        f"the session left child processes {children} and non-daemon "
        f"threads {threads} running")


@pytest.fixture()
def hospital_relations():
    """Tables 1–3 of the paper: three hospitals' patient relations."""
    hospital1 = Relation("hospital1", {
        "name": ["John", "Adam", "Mike"],
        "age": [4, 6, 2],
        "disease": ["Cancer", "Cancer", "Heart"],
        "cost": [100, 200, 300],
    })
    hospital2 = Relation("hospital2", {
        "name": ["John", "Adam", "Bob"],
        "age": [8, 5, 4],
        "disease": ["Cancer", "Fever", "Fever"],
        "cost": [100, 70, 50],
    })
    hospital3 = Relation("hospital3", {
        "name": ["Carl", "John", "Lisa"],
        "age": [8, 4, 5],
        "disease": ["Cancer", "Cancer", "Heart"],
        "cost": [300, 700, 500],
    })
    return [hospital1, hospital2, hospital3]


@pytest.fixture()
def disease_domain():
    """The disease attribute domain shared by the hospitals."""
    return Domain("disease", ["Cancer", "Fever", "Heart"])


@pytest.fixture()
def hospital_system(hospital_relations, disease_domain):
    """A fully outsourced deployment over the running example."""
    return PrismSystem.build(
        hospital_relations, disease_domain, "disease",
        agg_attributes=("cost", "age"), with_verification=True, seed=11,
    )


def make_system(sets, seed=0, with_verification=False, domain_values=None,
                **kwargs):
    """Deployment over plain value sets (one single-column relation each)."""
    values = domain_values
    if values is None:
        values = sorted({v for s in sets for v in s})
        if not values:
            values = [0]
    relations = [
        Relation(f"owner{i}", {"A": sorted(s)}) for i, s in enumerate(sets)
    ]
    domain = Domain("A", values)
    system = PrismSystem.build(relations, domain, "A",
                               with_verification=with_verification,
                               seed=seed, **kwargs)
    return system
