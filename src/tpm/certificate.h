/**
 * @file
 * Public-key certificates.
 *
 * §3.2.3: the privacy Certificate Authority "may be a separate trusted
 * server already used by the cloud provider for standard certification
 * of public-key certificates that bind a public key to a given
 * machine". Certificates here bind a subject name to an RSA public
 * key under an issuer signature. The pCA issues one for each
 * per-session attestation key AVKs (§3.4.2), which lets the
 * Attestation Server authenticate a cloud server "anonymously" —
 * the certificate names the session, not the machine.
 */

#ifndef MONATT_TPM_CERTIFICATE_H
#define MONATT_TPM_CERTIFICATE_H

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/rsa.h"

namespace monatt::tpm
{

/** A signed binding of subject name to public key. */
struct Certificate
{
    std::string subject;   //!< Named key (e.g. "aik-session-17").
    Bytes subjectKey;      //!< Encoded RsaPublicKey.
    std::string issuer;    //!< Issuing authority id.
    std::uint64_t serial = 0;
    Bytes signature;       //!< Issuer signature over encodeTbs().

    /** The to-be-signed portion. */
    Bytes encodeTbs() const;

    /** Full serialization including the signature. */
    Bytes encode() const;

    /** Parse; error on malformed input. */
    static Result<Certificate> decode(const Bytes &data);

    /** Check the issuer signature under the compiled issuer key (the
     * Attestation Server keeps one per pCA across sessions). */
    bool verify(const crypto::RsaPublicContext &issuerCtx) const;

    /** Decode the subject public key. */
    Result<crypto::RsaPublicKey> publicKey() const;
};

/** Create a certificate and sign it under the compiled issuer key (the
 * pCA signs every certificate with the same key). */
Certificate issueCertificate(const std::string &subject,
                             const crypto::RsaPublicKey &subjectKey,
                             const std::string &issuer,
                             std::uint64_t serial,
                             const crypto::RsaPrivateContext &issuerCtx);

} // namespace monatt::tpm

#endif // MONATT_TPM_CERTIFICATE_H
