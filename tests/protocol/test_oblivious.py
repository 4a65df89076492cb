"""Tests for the 1-out-of-P OT and private sub-sampling extension."""

import random

import pytest
from toy_crypto import TOY_DH_GROUP

from repro.crypto.dh import DHGroup
from repro.protocol.oblivious import (
    OTReceiver,
    OTSender,
    PrivateSubsampler,
    transfer,
)


@pytest.fixture(scope="module")
def group():
    return TOY_DH_GROUP


class TestOneOfP:
    @pytest.mark.parametrize("n_slots", [2, 3, 5])
    def test_receiver_gets_chosen_message(self, group, n_slots):
        rng = random.Random(n_slots)
        messages = [f"slot-{i}".encode() * 3 for i in range(n_slots)]
        for choice in range(n_slots):
            assert transfer(group, messages, choice, rng=rng) == messages[choice]

    def test_other_slots_undecryptable_with_receiver_secret(self, group):
        """Decrypting a non-chosen slot with the receiver's key yields noise."""
        rng = random.Random(0)
        messages = [b"A" * 16, b"B" * 16, b"C" * 16]
        sender = OTSender(group, 3, rng=rng)
        receiver = OTReceiver(group, sender.public_commitments(), choice=1, rng=rng)
        slots = sender.encrypt_slots(receiver.public_key(), messages)
        # Forcibly decrypt slot 2 with the receiver's secret: must NOT match.
        forged = OTReceiver.__new__(OTReceiver)
        forged.group = receiver.group
        forged.secret = receiver.secret
        forged.choice = 2
        assert forged.decrypt_choice(slots) != messages[2]

    def test_sender_view_independent_of_choice(self, group):
        """The receiver's public key is one group element regardless of
        choice -- the sender sees the same distribution for any choice."""
        rng = random.Random(1)
        sender = OTSender(group, 4, rng=rng)
        pks = [
            OTReceiver(group, sender.public_commitments(), choice=c,
                       rng=random.Random(100 + c)).public_key()
            for c in range(4)
        ]
        # All are valid group elements; none reveals the choice structurally.
        for pk in pks:
            assert 1 < pk < group.prime - 1

    def test_every_exponent_follows_the_group_policy(self, group, monkeypatch):
        """Commitments, per-slot r and the receiver's secret all come from
        ``DHGroup.random_exponent`` (256-bit, ``secrets`` by default) --
        none is a hand-rolled full-range draw."""
        drawn = []
        original = DHGroup.random_exponent

        def recording(self, rng=None):
            drawn.append(original(self, rng))
            return drawn[-1]

        monkeypatch.setattr(DHGroup, "random_exponent", recording)
        random.seed(3)
        before = random.getstate()
        messages = [b"a" * 8, b"b" * 8, b"c" * 8]
        assert transfer(group, messages, choice=2) == messages[2]
        assert random.getstate() == before
        assert len(drawn) == 2 + 1 + 3  # commitments, receiver secret, slots
        assert all(e.bit_length() == 256 for e in drawn)

    def test_rejects_bad_parameters(self, group):
        with pytest.raises(ValueError):
            OTSender(group, 1)
        sender = OTSender(group, 3, rng=random.Random(0))
        with pytest.raises(ValueError):
            OTReceiver(group, sender.public_commitments(), choice=3)
        with pytest.raises(ValueError):
            sender.encrypt_slots(0, [b"a", b"b", b"c"])
        with pytest.raises(ValueError):
            sender.encrypt_slots(5, [b"a"])  # wrong message count

    def test_paillier_ciphertext_transport(self, group):
        """The actual payload type: Paillier ciphertexts as bytes."""
        import random as pyrandom

        from repro.crypto.paillier import generate_paillier_keypair

        rng = pyrandom.Random(2)
        kp = generate_paillier_keypair(bits=128, rng=rng)
        real = kp.public_key.encrypt(42, rng=rng)
        dummy = kp.public_key.encrypt(0, rng=rng)
        byte_len = (kp.public_key.n_squared.bit_length() + 7) // 8
        messages = [
            real.value.to_bytes(byte_len, "big"),
            dummy.value.to_bytes(byte_len, "big"),
        ]
        received = transfer(group, messages, choice=0, rng=rng)
        from repro.crypto.paillier import PaillierCiphertext

        ct = PaillierCiphertext(int.from_bytes(received, "big"), kp.public_key)
        assert kp.private_key.decrypt(ct) == 42


class TestPrivateSubsampler:
    def test_slots_common_across_silos(self):
        a = PrivateSubsampler(b"shared-seed", 4)
        b = PrivateSubsampler(b"shared-seed", 4)
        for u in range(20):
            assert a.slot_for(u, 0) == b.slot_for(u, 0)

    def test_slots_change_per_round(self):
        s = PrivateSubsampler(b"seed", 4)
        slots_r0 = [s.slot_for(u, 0) for u in range(50)]
        slots_r1 = [s.slot_for(u, 1) for u in range(50)]
        assert slots_r0 != slots_r1

    def test_participation_rate_approximates_1_over_p(self):
        s = PrivateSubsampler(b"seed2", 4)
        total = 0
        n_users, n_rounds = 200, 25
        for r in range(n_rounds):
            total += len(s.sampled_users(n_users, r))
        rate = total / (n_users * n_rounds)
        assert abs(rate - 0.25) < 0.03

    def test_rejects_single_slot(self):
        with pytest.raises(ValueError):
            PrivateSubsampler(b"x", 1)

    def test_different_seeds_different_schedules(self):
        a = PrivateSubsampler(b"seed-a", 3)
        b = PrivateSubsampler(b"seed-b", 3)
        assert [a.slot_for(u, 0) for u in range(30)] != [
            b.slot_for(u, 0) for u in range(30)
        ]
