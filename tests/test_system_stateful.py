"""Stateful model-based test of the full access-control system.

A hypothesis rule-based state machine drives random interleavings of
administrator operations (add / remove / rekey / repartition) and client
synchronisations against a reference model (a set of members), asserting
after every step:

* every current member's client derives the same group key;
* every revoked/never-added identity is locked out;
* the plaintext group key never appears in any cloud object;
* the admin's partition table matches the reference membership.

The sampled clients are kept across steps, so they follow their
partitions by hint update under whatever interleaving the machine
draws; a client built from nothing at every step is their oracle, and
no update may ever have been discarded.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.errors import RevokedError
from tests.conftest import make_system

USER_POOL = [f"user{i}" for i in range(14)]

#: ``client.hint_updates`` of every warm client of every example.
UPDATES = []


class AccessControlMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.system = make_system("stateful", capacity=3)
        self.members = set()
        self.clients = {}
        self.ever_member = set()

    @initialize()
    def create_group(self):
        self.system.admin.create_group("g", ["user0"])
        self.members = {"user0"}
        self.ever_member = {"user0"}

    # -- rules ---------------------------------------------------------------

    @rule(index=st.integers(min_value=0, max_value=len(USER_POOL) - 1))
    def add_user(self, index):
        user = USER_POOL[index]
        if user in self.members:
            return
        self.system.admin.add_user("g", user)
        self.members.add(user)
        self.ever_member.add(user)

    @rule(index=st.integers(min_value=0, max_value=len(USER_POOL) - 1))
    def remove_user(self, index):
        user = USER_POOL[index]
        if user not in self.members or len(self.members) == 1:
            return
        self.system.admin.remove_user("g", user)
        self.members.discard(user)

    @rule()
    def rekey(self):
        self.system.admin.rekey("g")

    @rule()
    def repartition(self):
        self.system.admin.repartition("g")

    # -- invariants -----------------------------------------------------------

    @invariant()
    def table_matches_model(self):
        state = self.system.admin.group_state("g")
        assert set(state.table.all_members()) == self.members

    @invariant()
    def members_share_one_key_and_outsiders_fail(self):
        # Sample up to three members and one outsider per step (checking
        # everyone every step would be O(n³) over the run).
        sample = sorted(self.members)[:3]
        keys = set()
        for user in sample:
            client = self._client(user)
            client.sync()
            keys.add(client.current_group_key())
        if sample:
            cold = self.system.make_client("g", sample[0])
            cold.sync()
            keys.add(cold.current_group_key())
        assert len(keys) <= 1
        revoked = sorted(self.ever_member - self.members)
        if revoked:
            client = self._client(revoked[0])
            client.sync()
            try:
                derived = client.current_group_key()
            except RevokedError:
                derived = None
            if keys:
                assert derived != next(iter(keys))

    @invariant()
    def cloud_never_stores_plaintext_key(self):
        if not self.members:
            return
        client = self._client(sorted(self.members)[0])
        client.sync()
        group_key = client.current_group_key()
        for obj in self.system.cloud.adversary_view():
            assert group_key not in obj.data

    def _client(self, user):
        if user not in self.clients:
            self.clients[user] = self.system.make_client("g", user)
        return self.clients[user]

    def teardown(self):
        clients = self.clients.values()
        assert sum(client.hint_fallbacks for client in clients) == 0
        UPDATES.extend(client.hint_updates for client in clients)


AccessControlMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)


class TestAccessControlMachine(AccessControlMachine.TestCase):
    def runTest(self):
        UPDATES.clear()
        super().runTest()
        assert sum(UPDATES) > 0
