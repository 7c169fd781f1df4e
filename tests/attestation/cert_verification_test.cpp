/**
 * @file
 * The certificate verification cache: unit tests of the FIFO map the
 * Attestation Server keeps it in (digest -> verified AVK), plus an
 * end-to-end fixture proving the §3.4 semantics are preserved — a
 * reused certificate hits the cache with a byte-identical verdict,
 * while a tampered certificate misses the cache, fails cold
 * verification, and still yields an authentic report with every
 * property Unknown.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "attestation/attestation_server.h"
#include "common/fifo_map.h"
#include "crypto/sha256.h"
#include "net/secure_endpoint.h"
#include "proto/messages.h"
#include "sim/event_queue.h"
#include "tpm/certificate.h"

namespace monatt::attestation
{
namespace
{

using proto::HealthStatus;
using proto::MessageKind;

crypto::RsaKeyPair
generate(std::uint64_t seed)
{
    Rng rng(seed);
    return crypto::rsaGenerateKeyPair(512, rng);
}

crypto::RsaPublicKey
keyFor(std::uint64_t seed)
{
    return generate(seed).pub;
}

/** The Attestation Server's cert-verification cache type. */
using CertCache = FifoMap<Bytes, crypto::RsaPublicKey>;

Bytes
digestOf(const std::string &text)
{
    return crypto::Sha256::hash(toBytes(text));
}

TEST(CertVerificationCacheTest, LookupAndInsert)
{
    CertCache cache(4);
    const Bytes d1 = digestOf("cert-1");
    EXPECT_EQ(cache.find(d1), nullptr);

    const crypto::RsaPublicKey k1 = keyFor(1);
    EXPECT_NE(cache.insert(d1, k1), nullptr);
    EXPECT_EQ(cache.size(), 1u);
    const crypto::RsaPublicKey *hit = cache.find(d1);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(*hit == k1);
}

TEST(CertVerificationCacheTest, FifoEvictionAtCapacity)
{
    CertCache cache(2);
    const crypto::RsaPublicKey k = keyFor(2);
    const Bytes d1 = digestOf("a");
    const Bytes d2 = digestOf("b");
    const Bytes d3 = digestOf("c");

    cache.insert(d1, k);
    cache.insert(d2, k);
    cache.insert(d3, k); // evicts d1 (FIFO)
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find(d1), nullptr);
    EXPECT_NE(cache.find(d2), nullptr);
    EXPECT_NE(cache.find(d3), nullptr);
}

TEST(CertVerificationCacheTest, DuplicateDigestKeepsFirstEntry)
{
    // A digest always certifies the same AVK, so the first insert
    // wins and keeps its FIFO position.
    CertCache cache(2);
    const Bytes d = digestOf("dup");
    const Bytes other = digestOf("other");
    cache.insert(d, keyFor(3));
    cache.insert(other, keyFor(3));
    EXPECT_EQ(cache.insert(d, keyFor(4)), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    const crypto::RsaPublicKey *hit = cache.find(d);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(*hit == keyFor(3));

    cache.insert(digestOf("third"), keyFor(5)); // d is still the oldest
    EXPECT_EQ(cache.find(d), nullptr);
    EXPECT_NE(cache.find(other), nullptr);
}

TEST(CertVerificationCacheTest, ClearEmptiesEntries)
{
    CertCache cache(2);
    cache.insert(digestOf("x"), keyFor(5));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.find(digestOf("x")), nullptr);
}

TEST(CertVerificationCacheTest, ZeroCapacityClampsToOne)
{
    CertCache cache(0);
    cache.insert(digestOf("y"), keyFor(6));
    EXPECT_EQ(cache.size(), 1u);
    cache.insert(digestOf("z"), keyFor(6));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.find(digestOf("y")), nullptr);
    EXPECT_NE(cache.find(digestOf("z")), nullptr);
}

// --- End-to-end: §3.4 semantics through the Attestation Server --------

/**
 * A minimal message-driven deployment: the real AttestationServer plus
 * hand-rolled "cloud-controller" and "server-1" endpoints, with the
 * fixture playing privacy CA (it holds the pCA private key and crafts
 * AVK certificates directly).
 */
class CertCacheEndToEnd : public ::testing::Test
{
  protected:
    CertCacheEndToEnd()
        : network(events),
          pcaKeys(generate(0x9c4)),
          aik(generate(0xa1c)),
          controllerKeys(generate(0xcc1)),
          serverKeys(generate(0x5e1)),
          as(events, network, dir, AttestationServerConfig{}, 42),
          controller(network, "cloud-controller", controllerKeys, dir,
                     toBytes("controller-seed")),
          server(network, "server-1", serverKeys, dir,
                 toBytes("server-seed"))
    {
        dir.publish("privacy-ca", pcaKeys.pub);
        dir.publish(as.id(), as.identityPublic());
        dir.publish("cloud-controller", controllerKeys.pub);
        dir.publish("server-1", serverKeys.pub);

        controller.onMessage([this](const net::NodeId &, const Bytes &msg) {
            auto unpacked = proto::unpackMessage(msg);
            if (unpacked &&
                unpacked.value().kind == MessageKind::ReportToController) {
                auto rep = proto::decode<proto::ReportToController>(
                    unpacked.value().body);
                if (rep)
                    reports.push_back(rep.take());
            }
        });
        server.onMessage([this](const net::NodeId &, const Bytes &msg) {
            auto unpacked = proto::unpackMessage(msg);
            if (unpacked &&
                unpacked.value().kind == MessageKind::MeasureRequest) {
                auto req = proto::decode<proto::MeasureRequest>(
                    unpacked.value().body);
                if (req)
                    measureRequests.push_back(req.take());
            }
        });
    }

    /** A pCA certificate over the fixture AIK. */
    Bytes issueAikCert()
    {
        return tpm::issueCertificate("aik-e2e", aik.pub, "privacy-ca", 7,
                                     crypto::RsaPrivateContext(pcaKeys.priv))
            .encode();
    }

    /** Forward one attestation request and capture the MeasureRequest
     * the Attestation Server emits toward "server-1". */
    proto::MeasureRequest forwardAndCapture(std::uint64_t requestId)
    {
        proto::AttestForward fwd;
        fwd.requestId = requestId;
        fwd.vid = "vm-1";
        fwd.serverId = "server-1";
        fwd.properties = {proto::SecurityProperty::CpuAvailability};
        fwd.nonce2 = toBytes("nonce2-" + std::to_string(requestId));
        fwd.mode = proto::AttestMode::RuntimeOneTime;
        const std::size_t seen = measureRequests.size();
        controller.sendSecure(as.id(),
                              proto::packMessage(MessageKind::AttestForward,
                                                 proto::encode(fwd)));
        events.advance(seconds(10));
        EXPECT_EQ(measureRequests.size(), seen + 1);
        if (measureRequests.size() == seen)
            return {}; // never .back() an empty capture
        return measureRequests.back();
    }

    /** Answer a MeasureRequest with a well-formed response carrying
     * `certBytes`, signed by the fixture AIK, and run the network. */
    void respond(const proto::MeasureRequest &req, const Bytes &certBytes)
    {
        respond(req, certBytes, aik.priv);
    }

    /** As above, with the response signed by `signer`. */
    void respond(const proto::MeasureRequest &req, const Bytes &certBytes,
                 const crypto::RsaPrivateKey &signer)
    {
        proto::MeasureResponse resp;
        resp.requestId = req.requestId;
        resp.vid = req.vid;
        resp.rm = req.rm;
        resp.m = proto::MeasurementSet{};
        resp.nonce3 = req.nonce3;
        resp.quote3 = proto::MeasureResponse::quoteInput(
            resp.vid, resp.rm, resp.m, resp.nonce3);
        resp.signature = crypto::rsaSign(crypto::RsaPrivateContext(signer),
                                         resp.signedPortion());
        resp.certificate = certBytes;
        server.sendSecure(as.id(),
                          proto::packMessage(MessageKind::MeasureResponse,
                                             proto::encode(resp)));
        events.advance(seconds(10));
    }

    sim::EventQueue events;
    net::Network network;
    net::KeyDirectory dir;
    crypto::RsaKeyPair pcaKeys;
    crypto::RsaKeyPair aik;
    crypto::RsaKeyPair controllerKeys;
    crypto::RsaKeyPair serverKeys;
    AttestationServer as;
    net::SecureEndpoint controller;
    net::SecureEndpoint server;
    std::vector<proto::MeasureRequest> measureRequests;
    std::vector<proto::ReportToController> reports;
};

TEST_F(CertCacheEndToEnd, ReusedCertificateHitsCache)
{
    const Bytes cert = issueAikCert();

    const proto::MeasureRequest r1 = forwardAndCapture(1);
    respond(r1, cert);
    EXPECT_EQ(as.stats().responsesVerified, 1u);
    EXPECT_EQ(as.stats().certCacheMisses, 1u);
    EXPECT_EQ(as.stats().certCacheHits, 0u);
    EXPECT_EQ(as.certificateCache().size(), 1u);

    // Byte-identical certificate: chain check replayed from the cache.
    const proto::MeasureRequest r2 = forwardAndCapture(2);
    respond(r2, cert);
    EXPECT_EQ(as.stats().responsesVerified, 2u);
    EXPECT_EQ(as.stats().certCacheMisses, 1u);
    EXPECT_EQ(as.stats().certCacheHits, 1u);
    ASSERT_EQ(reports.size(), 2u);
}

TEST_F(CertCacheEndToEnd, CachedAvkStillChecksEverySignature)
{
    const Bytes cert = issueAikCert();
    respond(forwardAndCapture(1), cert);
    ASSERT_EQ(as.certificateCache().size(), 1u);
    // The cache keeps the certified key compiled; the journal records
    // it exactly as before: the digest and the key's encoding.
    EXPECT_EQ(as.certificateCache().begin()->second.key(), aik.pub);
    const std::vector<sim::JournalRecord> journal =
        as.stableStore().durableSince(0);
    const Bytes certRecord = proto::encode(
        CertRecord{crypto::Sha256::hash(cert), aik.pub.encode()});
    EXPECT_EQ(std::count_if(journal.begin(), journal.end(),
                            [&](const sim::JournalRecord &r) {
                                return r.payload == certRecord;
                            }),
              1);

    // A second response under the cached AVK verifies.
    respond(forwardAndCapture(2), cert);
    EXPECT_EQ(as.stats().certCacheHits, 1u);
    EXPECT_EQ(as.stats().responsesVerified, 2u);
    EXPECT_EQ(as.stats().verificationFailures, 0u);

    // A forged signature under that AVK hits the cache and is still
    // rejected: every property comes back Unknown.
    const crypto::RsaKeyPair forger = generate(0xf0f);
    respond(forwardAndCapture(3), cert, forger.priv);
    EXPECT_EQ(as.stats().certCacheHits, 2u);
    EXPECT_EQ(as.stats().certCacheMisses, 1u);
    EXPECT_EQ(as.stats().responsesVerified, 2u);
    EXPECT_EQ(as.stats().verificationFailures, 1u);
    ASSERT_EQ(reports.size(), 3u);
    ASSERT_FALSE(reports.back().report.results.empty());
    for (const proto::PropertyResult &pr : reports.back().report.results)
        EXPECT_EQ(pr.status, HealthStatus::Unknown);
}

TEST_F(CertCacheEndToEnd, TamperedCertificateMissesAndYieldsUnknown)
{
    const Bytes cert = issueAikCert();
    const proto::MeasureRequest r1 = forwardAndCapture(1);
    respond(r1, cert);
    ASSERT_EQ(as.certificateCache().size(), 1u);

    // One flipped byte: different digest, cache miss, cold chain check
    // fails, and the report still arrives — all properties Unknown.
    Bytes tampered = cert;
    tampered[tampered.size() / 2] ^= 0x01;
    const proto::MeasureRequest r2 = forwardAndCapture(2);
    respond(r2, tampered);

    EXPECT_EQ(as.stats().certCacheHits, 0u);
    EXPECT_EQ(as.stats().certCacheMisses, 2u);
    EXPECT_EQ(as.stats().verificationFailures, 1u);
    // The failed verdict is never cached.
    EXPECT_EQ(as.certificateCache().size(), 1u);

    ASSERT_EQ(reports.size(), 2u);
    const proto::ReportToController &bad = reports.back();
    ASSERT_FALSE(bad.report.results.empty());
    for (const proto::PropertyResult &pr : bad.report.results)
        EXPECT_EQ(pr.status, HealthStatus::Unknown);
    // The report itself is authentic: signed by the AS identity key.
    EXPECT_TRUE(crypto::rsaVerify(crypto::RsaPublicContext(as.identityPublic()),
                                  bad.signedPortion(), bad.signature));
}

} // namespace
} // namespace monatt::attestation
