/**
 * @file
 * The hardware Trust Module of Figure 2.
 *
 * "We define a new hardware Trust Module... responsible for server
 * authentication using the Identity Key, crypto operations using the
 * Crypto Engine, Key Generation and Random Number generation (RNG)
 * blocks, and secure measurement storage using the Trust Evidence
 * Registers."
 *
 * The Trust Evidence Registers (TERs) are "analogous to the
 * performance counters used for evaluating the system's performance,
 * except that they measure aspects of the system's security". Banks
 * of named registers are defined per monitoring mechanism — e.g. the
 * covert-channel detector of §4.4.2 uses a 30-register bank counting
 * CPU-usage-interval occurrences, the availability monitor of §4.5.2
 * uses a single register holding CPU_measure.
 *
 * For each attestation session the module generates a fresh
 * attestation key pair {AVKs, ASKs} (§3.4.2), signs the public half
 * with the long-term identity key SKs for pCA certification, and signs
 * measurement quotes with ASKs. The private identity key never leaves
 * the module — expressed here by the class signing with it and lending
 * the pair only to the server's secure endpoint for its handshakes.
 */

#ifndef MONATT_TPM_TRUST_MODULE_H
#define MONATT_TPM_TRUST_MODULE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "tpm/tpm_emulator.h"

namespace monatt::tpm
{

/** Handle to an open attestation session inside the Trust Module. */
using SessionHandle = std::uint64_t;

/** Public artifacts of a freshly created attestation session. */
struct AttestationSessionInfo
{
    SessionHandle handle = 0;
    crypto::RsaPublicKey attestationKey;  //!< AVKs.
    Bytes attestationKeySignature;        //!< [AVKs]SKs, for the pCA.
};

/** The Trust Module. */
class TrustModule
{
  public:
    /**
     * @param identityKey Long-term {VKs, SKs}; conceptually inserted
     *        into the tamper-proof register at deployment (§3.4.2).
     * @param entropySeed Seed for the RNG block.
     * @param sessionKeyBits Modulus size for per-session AIKs.
     */
    TrustModule(crypto::RsaKeyPair identityKey, const Bytes &entropySeed,
                std::size_t sessionKeyBits = 512);

    /** Public identity key VKs. */
    const crypto::RsaPublicKey &identityPublic() const
    {
        return identity.pub;
    }

    /** Sign with the long-term identity key SKs. */
    Bytes signWithIdentity(const Bytes &message) const;

    /** Identity key pair view for SSL handshakes (private half stays
     * inside the module; the channel layer only signs and decrypts
     * with it). */
    const crypto::RsaKeyPair &identityKeyPair() const { return identity; }

    /** RNG block: generate `n` random bytes (nonces etc.). */
    Bytes randomBytes(std::size_t n);

    // --- Trust Evidence Registers ------------------------------------

    /** Define (or redefine, zeroed) a named bank of `count` TERs. */
    void defineBank(const std::string &bank, std::size_t count);

    /** True when the named bank exists. */
    bool hasBank(const std::string &bank) const;

    /** Write one register. @throws std::out_of_range on bad address. */
    void writeRegister(const std::string &bank, std::size_t index,
                       std::uint64_t value);

    /** Read one register. */
    std::uint64_t readRegister(const std::string &bank,
                               std::size_t index) const;

    /** Read a whole bank. @throws std::out_of_range on unknown bank. */
    const std::vector<std::uint64_t> &readBank(
        const std::string &bank) const;

    // --- Attestation sessions ----------------------------------------

    /**
     * Create a fresh attestation session: generates {AVKs, ASKs} and
     * the identity signature over AVKs (step 3 in Figure 2).
     */
    AttestationSessionInfo beginSession();

    /** Sign a measurement blob with the session's ASKs (step 6). */
    Result<Bytes> signWithSession(SessionHandle handle,
                                  const Bytes &message) const;

    /** Discard a session's private key. */
    void endSession(SessionHandle handle);

    /** Number of currently open sessions. */
    std::size_t openSessions() const { return sessions.size(); }

    /** The embedded TPM device (used by the Integrity Measurement
     * Unit for PCR-based boot measurements). */
    TpmEmulator &tpmDevice() { return tpmDev; }
    const TpmEmulator &tpmDevice() const { return tpmDev; }

  private:
    /** An open session: the key pair plus its compiled Montgomery
     * constants, derived once at beginSession so every quote signed
     * during the session skips the per-operation precomputation. */
    struct SessionKey
    {
        crypto::RsaKeyPair keys;
        crypto::RsaPrivateContext ctx;
    };

    crypto::RsaKeyPair identity;
    /** Compiled identity key: every AVK signature goes through this
     * instead of re-deriving constants. */
    crypto::RsaPrivateContext identityCtx;
    crypto::HmacDrbg drbg;
    std::size_t aikBits;
    TpmEmulator tpmDev;
    std::map<std::string, std::vector<std::uint64_t>> banks;
    std::map<SessionHandle, SessionKey> sessions;
    SessionHandle nextHandle = 1;
};

} // namespace monatt::tpm

#endif // MONATT_TPM_TRUST_MODULE_H
