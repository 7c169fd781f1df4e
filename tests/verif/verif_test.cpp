/**
 * @file
 * Symbolic protocol verification: the term algebra, the Dolev-Yao
 * deduction engine, and the §7.2.2 queries — including negative
 * validation (deliberately leaked secrets must break the matching
 * properties, proving the checker is not vacuous).
 */

#include <gtest/gtest.h>

#include "verif/deduction.h"
#include "verif/protocol_model.h"
#include "verif/term.h"

namespace monatt::verif
{
namespace
{

TEST(TermTest, StructuralEquality)
{
    const TermPtr a = Term::name("k");
    const TermPtr b = Term::name("k");
    EXPECT_EQ(a->repr(), b->repr());
    EXPECT_NE(a->repr(), Term::name("j")->repr());
    EXPECT_EQ(Term::pair(a, b)->repr(), Term::pair(b, a)->repr());
    EXPECT_NE(Term::senc(a, b)->repr(), Term::aenc(a, b)->repr());
}

TEST(TermTest, TupleNestsRight)
{
    const TermPtr t = Term::tuple(
        {Term::name("a"), Term::name("b"), Term::name("c")});
    ASSERT_EQ(t->kind(), TermKind::Pair);
    EXPECT_EQ(t->children()[0]->atom(), "a");
    EXPECT_EQ(t->children()[1]->kind(), TermKind::Pair);
}

TEST(DeductionTest, PairsDecompose)
{
    KnowledgeBase kb;
    kb.observe(Term::pair(Term::name("a"), Term::name("b")));
    kb.saturate();
    EXPECT_TRUE(kb.canDerive(Term::name("a")));
    EXPECT_TRUE(kb.canDerive(Term::name("b")));
}

TEST(DeductionTest, SymmetricEncryptionHidesWithoutKey)
{
    KnowledgeBase kb;
    kb.observe(Term::senc(Term::name("k"), Term::name("secret")));
    kb.saturate();
    EXPECT_FALSE(kb.canDerive(Term::name("secret")));

    KnowledgeBase kb2;
    kb2.observe(Term::senc(Term::name("k"), Term::name("secret")));
    kb2.observe(Term::name("k"));
    kb2.saturate();
    EXPECT_TRUE(kb2.canDerive(Term::name("secret")));
}

TEST(DeductionTest, AsymmetricEncryptionNeedsPrivateKey)
{
    const TermPtr sk = Term::name("sk");
    KnowledgeBase kb;
    kb.observe(Term::aenc(Term::pub(sk), Term::name("pm")));
    kb.saturate();
    EXPECT_FALSE(kb.canDerive(Term::name("pm")));
    // Public keys are derivable, so the attacker CAN encrypt his own
    // payloads to anyone.
    EXPECT_TRUE(kb.canDerive(Term::pub(sk)));

    KnowledgeBase kb2;
    kb2.observe(Term::aenc(Term::pub(sk), Term::name("pm")));
    kb2.observe(sk);
    kb2.saturate();
    EXPECT_TRUE(kb2.canDerive(Term::name("pm")));
}

TEST(DeductionTest, SignaturesRevealButCannotBeForged)
{
    const TermPtr sk = Term::name("sk");
    KnowledgeBase kb;
    kb.observe(Term::sign(sk, Term::name("msg")));
    kb.makePublic(Term::name("other"));
    kb.saturate();
    // The signed message leaks (signing is not encryption)...
    EXPECT_TRUE(kb.canDerive(Term::name("msg")));
    // ...and the observed signature itself is replayable...
    EXPECT_TRUE(kb.canDerive(Term::sign(sk, Term::name("msg"))));
    // ...but a signature over new content is not forgeable.
    EXPECT_FALSE(kb.canDerive(Term::sign(sk, Term::name("other"))));
}

TEST(DeductionTest, HashesAreOneWay)
{
    KnowledgeBase kb;
    kb.observe(Term::hash(Term::name("x")));
    kb.saturate();
    EXPECT_FALSE(kb.canDerive(Term::name("x")));
    // But hashing known material is synthesis.
    kb.observe(Term::name("y"));
    EXPECT_TRUE(kb.canDerive(Term::hash(Term::name("y"))));
}

TEST(DeductionTest, KeyDerivedFromHashUnlocksDecryption)
{
    // senc(h(pm), secret): leaking pm must reveal the secret through
    // the synthesized key — exercising synthesis-in-key-position.
    const TermPtr key = Term::hash(Term::name("pm"));
    KnowledgeBase kb;
    kb.observe(Term::senc(key, Term::name("secret")));
    kb.observe(Term::name("pm"));
    kb.saturate();
    EXPECT_TRUE(kb.canDerive(Term::name("secret")));
}

TEST(ProtocolModelTest, AllPropertiesHoldHonestly)
{
    ProtocolModel model;
    const auto outcomes = model.verifyAll();
    EXPECT_EQ(outcomes.size(), 8u + 3u + 3u + 3u);
    for (const auto &o : outcomes)
        EXPECT_TRUE(o.holds) << o.property << ": " << o.detail;
}

TEST(ProtocolModelTest, LeakedSessionKeyBreaksThatHopOnly)
{
    ProtocolModel model({LeakableSecret::SessionKeyKz});
    bool kzBroken = false, kxHolds = false, mLeaked = false;
    for (const auto &o : model.verifyAll()) {
        if (o.property == "secrecy: Kz")
            kzBroken = !o.holds;
        if (o.property == "secrecy: Kx")
            kxHolds = o.holds;
        if (o.property == "secrecy: M (measurements)")
            mLeaked = !o.holds;
    }
    EXPECT_TRUE(kzBroken);
    EXPECT_TRUE(kxHolds);
    // M travels under Kz, so it leaks too.
    EXPECT_TRUE(mLeaked);
}

TEST(ProtocolModelTest, LeakedServerIdentityKeyBreaksKzViaHandshake)
{
    ProtocolModel model({LeakableSecret::ServerIdentityKey});
    for (const auto &o : model.verifyAll()) {
        if (o.property == "secrecy: Kz") {
            EXPECT_FALSE(o.holds) << o.detail;
        }
        if (o.property == "secrecy: M (measurements)") {
            EXPECT_FALSE(o.holds) << o.detail;
        }
        // Other hops stay secure.
        if (o.property == "secrecy: Ky") {
            EXPECT_TRUE(o.holds) << o.detail;
        }
    }
}

TEST(ProtocolModelTest, LeakedAttestorKeyBreaksReportIntegrity)
{
    ProtocolModel model({LeakableSecret::AttestorIdentityKey});
    for (const auto &o : model.verifyAll()) {
        if (o.property == "integrity: R at controller (forge [*]SKa)") {
            EXPECT_FALSE(o.holds);
        }
        if (o.property == "integrity: R at customer (forge [*]SKc)") {
            EXPECT_TRUE(o.holds);
        }
    }
}

TEST(ProtocolModelTest, LeakedSessionSigningKeyBreaksMeasurements)
{
    ProtocolModel model({LeakableSecret::SessionSigningKey});
    for (const auto &o : model.verifyAll()) {
        if (o.property == "integrity: M (forge [*]ASKs)") {
            EXPECT_FALSE(o.holds);
        }
    }
}

TEST(ProtocolModelTest, LeakedControllerKeyBreaksCustomerHop)
{
    ProtocolModel model({LeakableSecret::ControllerIdentityKey});
    bool sawAuthBreak = false;
    for (const auto &o : model.verifyAll()) {
        if (o.property.find("inject under Kx") != std::string::npos)
            sawAuthBreak = !o.holds;
    }
    EXPECT_TRUE(sawAuthBreak);
}

} // namespace
} // namespace monatt::verif
