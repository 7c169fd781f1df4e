#include "tpm/certificate.h"

#include "common/codec.h"

namespace monatt::tpm
{

Bytes
Certificate::encodeTbs() const
{
    ByteWriter w;
    w.putString("monatt-cert-v1");
    w.putString(subject);
    w.putBytes(subjectKey);
    w.putString(issuer);
    w.putU64(serial);
    return w.take();
}

Bytes
Certificate::encode() const
{
    ByteWriter w;
    w.putString(subject);
    w.putBytes(subjectKey);
    w.putString(issuer);
    w.putU64(serial);
    w.putBytes(signature);
    return w.take();
}

Result<Certificate>
Certificate::decode(const Bytes &data)
{
    using R = Result<Certificate>;
    ByteReader r(data);
    auto subject = r.getString();
    auto subjectKey = r.getBytes();
    auto issuer = r.getString();
    auto serial = r.getU64();
    auto signature = r.getBytes();
    if (!subject || !subjectKey || !issuer || !serial || !signature ||
        !r.atEnd()) {
        return R::error("Certificate: malformed encoding");
    }
    Certificate cert;
    cert.subject = subject.take();
    cert.subjectKey = subjectKey.take();
    cert.issuer = issuer.take();
    cert.serial = serial.value();
    cert.signature = signature.take();
    return R::ok(std::move(cert));
}

bool
Certificate::verify(const crypto::RsaPublicContext &issuerCtx) const
{
    return crypto::rsaVerify(issuerCtx, encodeTbs(), signature);
}

Result<crypto::RsaPublicKey>
Certificate::publicKey() const
{
    return crypto::RsaPublicKey::decode(subjectKey);
}

Certificate
issueCertificate(const std::string &subject,
                 const crypto::RsaPublicKey &subjectKey,
                 const std::string &issuer, std::uint64_t serial,
                 const crypto::RsaPrivateContext &issuerCtx)
{
    Certificate cert;
    cert.subject = subject;
    cert.subjectKey = subjectKey.encode();
    cert.issuer = issuer;
    cert.serial = serial;
    cert.signature = crypto::rsaSign(issuerCtx, cert.encodeTbs());
    return cert;
}

} // namespace monatt::tpm
