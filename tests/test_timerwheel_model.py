"""Model-based property test: the intrusive timer wheel vs two oracles.

* A plain dict of deadlines scanned linearly — trivially correct, O(n)
  per advance — says *which* items are due.
* :class:`DictTimerWheel`, the dict-backed wheel this repo shipped
  before the deadline moved onto the item, says in *which order* they
  fire: connection expiry order is delivery order, so the intrusive
  wheel must return the same items in the same order from every
  ``advance``, through any interleaving of schedules, reschedules
  (earlier and later), cancellations, re-schedules after a cancel,
  beyond-horizon deadlines and advances.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.conntrack import TimerWheel


class Node:
    __slots__ = ("name", "deadline")

    def __init__(self, name):
        self.name = name
        self.deadline = None

    def __repr__(self):
        return f"Node({self.name})"


class DictTimerWheel:
    """The parent commit's wheel, verbatim in behaviour: authoritative
    deadlines and live-entry counts in per-key dicts, ``(key, hint)``
    tuples in the slots."""

    def __init__(self, tick, num_slots):
        self.tick = tick
        self.num_slots = num_slots
        self._slots = [[] for _ in range(num_slots)]
        self._deadlines = {}
        self._entry_count = {}
        self._current_tick = 0

    def __len__(self):
        return len(self._deadlines)

    def deadline(self, key):
        return self._deadlines.get(key)

    def schedule(self, key, fire_at):
        previous = self._deadlines.get(key)
        self._deadlines[key] = fire_at
        if self._entry_count.get(key, 0) == 0 or previous is None or \
                fire_at < previous:
            self._insert_entry(key, fire_at)

    def cancel(self, key):
        self._deadlines.pop(key, None)

    def _insert_entry(self, key, fire_at):
        target_tick = max(int(fire_at / self.tick), self._current_tick)
        horizon = self._current_tick + self.num_slots - 1
        slot_tick = min(target_tick, horizon)
        self._slots[slot_tick % self.num_slots].append((key, fire_at))
        self._entry_count[key] = self._entry_count.get(key, 0) + 1

    def advance(self, now):
        expired = []
        target_tick = int(now / self.tick)
        while self._current_tick <= target_tick:
            slot = self._slots[self._current_tick % self.num_slots]
            if slot:
                remaining = []
                for key, _hinted_at in slot:
                    deadline = self._deadlines.get(key)
                    if deadline is None:
                        self._drop_entry(key)
                        continue
                    if deadline <= now:
                        del self._deadlines[key]
                        self._drop_entry(key)
                        expired.append(key)
                    elif int(deadline / self.tick) <= self._current_tick:
                        remaining.append((key, deadline))
                    else:
                        self._drop_entry(key)
                        self._insert_entry(key, deadline)
                slot.clear()
                slot.extend(remaining)
            if self._current_tick == target_tick:
                break
            self._current_tick += 1
        return expired

    def _drop_entry(self, key):
        count = self._entry_count.get(key, 0)
        if count <= 1:
            self._entry_count.pop(key, None)
        else:
            self._entry_count[key] = count - 1


TICK, SLOTS = 0.5, 16  # horizon 8 s: delays up to 40 s go beyond it


class WheelVsOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.wheel = TimerWheel(tick=TICK, num_slots=SLOTS)
        self.model = DictTimerWheel(tick=TICK, num_slots=SLOTS)
        self.oracle = {}
        self.nodes = {}
        self.now = 0.0

    keys = Bundle("keys")

    @rule(target=keys, key=st.integers(0, 30))
    def make_key(self, key):
        return self.nodes.setdefault(key, Node(key))

    @rule(node=keys, delay=st.floats(0.1, 40.0))
    def schedule(self, node, delay):
        self._schedule(node, self.now + delay)

    @rule(node=keys, factor=st.floats(0.0, 0.99))
    def reschedule_earlier(self, node, factor):
        if node in self.oracle:
            self._schedule(node, self.now +
                           (self.oracle[node] - self.now) * factor)

    def _schedule(self, node, fire_at):
        self.wheel.schedule(node, fire_at)
        self.model.schedule(node, fire_at)
        self.oracle[node] = fire_at

    @rule(node=keys)
    def cancel(self, node):
        self.wheel.cancel(node)
        self.model.cancel(node)
        self.oracle.pop(node, None)

    @rule(step=st.floats(0.0, 15.0))
    def advance(self, step):
        self.now += step
        fired = self.wheel.advance(self.now)
        due = {node for node, deadline in self.oracle.items()
               if deadline <= self.now}
        for node in due:
            del self.oracle[node]
        assert set(fired) == due and len(fired) == len(due), (
            f"at t={self.now}: wheel fired {fired}, due {due}")
        assert fired == self.model.advance(self.now), (
            f"at t={self.now}: order differs from the dict-backed wheel")

    @invariant()
    def live_sets_agree(self):
        for node in self.nodes.values():
            assert node.deadline == self.oracle.get(node)
            assert node.deadline == self.model.deadline(node)
        assert len(self.model) == len(self.oracle)


WheelVsOracle.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestWheelVsOracle = WheelVsOracle.TestCase


def _replay(script):
    """Run one scripted interleaving on both wheels; return what each
    ``advance`` fired (by name) after checking the two agree."""
    wheel = TimerWheel(tick=TICK, num_slots=SLOTS)
    model = DictTimerWheel(tick=TICK, num_slots=SLOTS)
    nodes = {}
    fired_per_advance = []
    for op, *args in script:
        if op == "advance":
            fired = wheel.advance(*args)
            assert fired == model.advance(*args)
            fired_per_advance.append([node.name for node in fired])
            continue
        node = nodes.setdefault(args[0], Node(args[0]))
        for target in (wheel, model):
            getattr(target, op)(node, *args[1:])
    return fired_per_advance


@pytest.mark.parametrize("script, expected", [
    pytest.param(
        [("schedule", "a", 3.0), ("schedule", "b", 3.2),
         ("schedule", "a", 7.0), ("advance", 4.0), ("advance", 7.0)],
        [["b"], ["a"]], id="reschedule-later"),
    pytest.param(
        [("schedule", "a", 7.0), ("schedule", "b", 2.1),
         ("schedule", "a", 2.2), ("advance", 2.5), ("advance", 8.0)],
        [["b", "a"], []], id="reschedule-earlier"),
    pytest.param(
        [("schedule", "a", 3.0), ("cancel", "a"), ("advance", 5.0)],
        [[]], id="cancel"),
    pytest.param(
        # The cancelled entry still sits in slot 6 and is live again
        # after the re-schedule: it, not the fresh slot-12 entry, fires
        # the item, ahead of b, when one advance sweeps both slots.
        [("schedule", "a", 3.0), ("cancel", "a"), ("schedule", "b", 4.0),
         ("schedule", "a", 6.0), ("advance", 6.5)],
        [["a", "b"]], id="reschedule-after-cancel"),
    pytest.param(
        [("schedule", "far", 30.0), ("schedule", "near", 7.9),
         ("advance", 7.9), ("advance", 20.0), ("advance", 30.0)],
        [["near"], [], ["far"]], id="beyond-horizon"),
    pytest.param(
        [("schedule", "a", 2.4), ("advance", 2.1), ("advance", 2.4)],
        [[], ["a"]], id="fractional-tick"),
])
def test_scripted_order_matches_dict_wheel(script, expected):
    assert _replay(script) == expected
