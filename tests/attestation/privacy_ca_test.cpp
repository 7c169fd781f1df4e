/**
 * @file
 * The privacy CA certifies an AVK only under the requesting server's
 * currently published identity key: after a rotation, a request signed
 * with the old key is refused and one signed with the new key is
 * certified, even though the pCA compiled the old key before.
 */

#include <gtest/gtest.h>

#include <optional>

#include "attestation/privacy_ca.h"

namespace monatt::attestation
{
namespace
{

struct PcaFixture
{
    sim::EventQueue events;
    net::Network network{events};
    net::KeyDirectory dir;
    PrivacyCa pca{events, network, dir, "privacy-ca", proto::TimingModel{},
                  7};
    crypto::RsaKeyPair oldKeys =
        crypto::deriveKeyPair("server-identity", "server-1", 1, 512);
    crypto::RsaKeyPair newKeys =
        crypto::deriveKeyPair("server-identity", "server-1", 2, 512);
    std::optional<net::SecureEndpoint> server;
    std::optional<proto::CertResponse> answer;

    PcaFixture()
    {
        dir.publish("privacy-ca", pca.publicKey());
        dir.publish("server-1", oldKeys.pub);
        server.emplace(network, "server-1", oldKeys, dir,
                       crypto::seedMaterial("endpoint", "server-1", 3));
        server->onMessage([this](const net::NodeId &, const Bytes &msg) {
            auto unpacked = proto::unpackMessage(msg);
            ASSERT_TRUE(unpacked.isOk());
            auto resp = proto::decode<proto::CertResponse>(
                unpacked.value().body);
            ASSERT_TRUE(resp.isOk());
            answer = resp.take();
        });
    }

    /** Ask for an AVK certificate signed with `identity`. */
    proto::CertResponse
    certify(const crypto::RsaKeyPair &identity, const std::string &label)
    {
        proto::CertRequest req;
        req.serverId = "server-1";
        req.sessionLabel = label;
        req.avk = crypto::deriveKeyPair("avk", label, 4, 512).pub.encode();
        req.avkSignature =
            crypto::rsaSign(crypto::RsaPrivateContext(identity.priv), req.avk);
        answer.reset();
        server->sendSecure("privacy-ca",
                           proto::pack(proto::MessageKind::CertRequest, req));
        events.run(events.now() + seconds(1));
        EXPECT_TRUE(answer.has_value()) << label;
        return answer.value_or(proto::CertResponse{});
    }
};

TEST(PrivacyCaTest, VerifiesUnderTheRotatedKeyNotAStaleContext)
{
    PcaFixture f;
    EXPECT_TRUE(f.certify(f.oldKeys, "aik-1").ok);

    f.dir.publish("server-1", f.newKeys.pub);
    EXPECT_FALSE(f.certify(f.oldKeys, "aik-2").ok);
    EXPECT_TRUE(f.certify(f.newKeys, "aik-3").ok);
    EXPECT_EQ(f.pca.issued(), 2u);
    EXPECT_EQ(f.pca.rejected(), 1u);
}

} // namespace
} // namespace monatt::attestation
