#include "proto/messages.h"

#include "common/codec.h"
#include "crypto/sha256.h"

namespace monatt::proto
{

Bytes
packMessage(MessageKind kind, const Bytes &body)
{
    Bytes out;
    out.reserve(2 + wire::varintSize(body.size()) + body.size());
    out.push_back(kTaggedFrameMarker);
    out.push_back(static_cast<std::uint8_t>(kind));
    wire::appendVarint(out, body.size());
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

Result<UnpackedMessage>
unpackMessage(const Bytes &framed)
{
    using R = Result<UnpackedMessage>;
    if (framed.size() < 2 || framed[0] != kTaggedFrameMarker)
        return R::error("malformed message frame");
    wire::WireReader r(framed, 2);
    auto len = r.nextVarint();
    if (!len || len.value() != r.remaining())
        return R::error("malformed message frame");
    UnpackedMessage m;
    m.kind = static_cast<MessageKind>(framed[1]);
    m.body.assign(framed.end() - static_cast<std::ptrdiff_t>(r.remaining()),
                  framed.end());
    return R::ok(std::move(m));
}

// The quote preimages and signed portions below are explicit field
// lists behind a domain label. Lists and nested values inside them use
// their declared encoding; none of those types has a field newer than
// kWireV1, so every schema version hashes the same bytes.

Bytes
MeasureResponse::quoteInput(const std::string &vid,
                            const MeasurementRequestList &rm,
                            const MeasurementSet &m, const Bytes &nonce3)
{
    ByteWriter w;
    w.putString("Q3");
    w.putString(vid);
    w.putBytes(encodePacked(rm));
    w.putBytes(encode(m));
    w.putBytes(nonce3);
    return crypto::Sha256::hash(w.data());
}

Bytes
MeasureResponse::signedPortion() const
{
    ByteWriter w;
    w.putString("measure-response");
    w.putU64(requestId);
    w.putString(vid);
    w.putBytes(encodePacked(rm));
    w.putBytes(encode(m));
    w.putBytes(nonce3);
    w.putBytes(quote3);
    return w.take();
}

bool
AttestationReport::allHealthy() const
{
    if (results.empty())
        return false;
    for (const PropertyResult &pr : results) {
        if (pr.status != HealthStatus::Healthy)
            return false;
    }
    return true;
}

const PropertyResult *
AttestationReport::find(SecurityProperty p) const
{
    for (const PropertyResult &pr : results) {
        if (pr.property == p)
            return &pr;
    }
    return nullptr;
}

Bytes
ReportToController::quoteInput(const std::string &vid,
                               const std::string &serverId,
                               const std::vector<SecurityProperty> &props,
                               const AttestationReport &report,
                               const Bytes &nonce2)
{
    ByteWriter w;
    w.putString("Q2");
    w.putString(vid);
    w.putString(serverId);
    w.putBytes(encodePacked(props));
    w.putBytes(report.encode());
    w.putBytes(nonce2);
    return crypto::Sha256::hash(w.data());
}

Bytes
ReportToController::signedPortion() const
{
    ByteWriter w;
    w.putString("report-to-controller");
    w.putU64(requestId);
    w.putString(vid);
    w.putString(serverId);
    w.putBytes(encodePacked(properties));
    w.putBytes(report.encode());
    w.putBytes(nonce2);
    w.putBytes(quote2);
    return w.take();
}

Bytes
ReportToCustomer::quoteInput(const std::string &vid,
                             const std::vector<SecurityProperty> &props,
                             const AttestationReport &report,
                             const Bytes &nonce1)
{
    ByteWriter w;
    w.putString("Q1");
    w.putString(vid);
    w.putBytes(encodePacked(props));
    w.putBytes(report.encode());
    w.putBytes(nonce1);
    return crypto::Sha256::hash(w.data());
}

Bytes
ReportToCustomer::signedPortion() const
{
    ByteWriter w;
    w.putString("report-to-customer");
    w.putU64(requestId);
    w.putString(vid);
    w.putBytes(encodePacked(properties));
    w.putBytes(report.encode());
    w.putBytes(nonce1);
    w.putBytes(quote1);
    w.putU8(finalPeriodic ? 1 : 0);
    return w.take();
}

} // namespace monatt::proto
