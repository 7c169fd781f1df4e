#include "tpm/trust_module.h"

#include <stdexcept>

namespace monatt::tpm
{

namespace
{

Bytes
drbgSeed(const Bytes &entropySeed, const crypto::RsaKeyPair &identity)
{
    Bytes seed = entropySeed;
    append(seed, identity.pub.encode());
    return seed;
}

} // namespace

TrustModule::TrustModule(crypto::RsaKeyPair identityKey,
                         const Bytes &entropySeed,
                         std::size_t sessionKeyBits)
    : identity(std::move(identityKey)), identityCtx(identity.priv),
      drbg(drbgSeed(entropySeed, identity)), aikBits(sessionKeyBits)
{
}

Bytes
TrustModule::signWithIdentity(const Bytes &message) const
{
    return crypto::rsaSign(identityCtx, message);
}

Bytes
TrustModule::randomBytes(std::size_t n)
{
    return drbg.generate(n);
}

void
TrustModule::defineBank(const std::string &bank, std::size_t count)
{
    banks[bank].assign(count, 0);
}

bool
TrustModule::hasBank(const std::string &bank) const
{
    return banks.count(bank) != 0;
}

void
TrustModule::writeRegister(const std::string &bank, std::size_t index,
                           std::uint64_t value)
{
    auto it = banks.find(bank);
    if (it == banks.end() || index >= it->second.size())
        throw std::out_of_range("TrustModule: bad TER address " + bank);
    it->second[index] = value;
}

std::uint64_t
TrustModule::readRegister(const std::string &bank, std::size_t index) const
{
    const auto it = banks.find(bank);
    if (it == banks.end() || index >= it->second.size())
        throw std::out_of_range("TrustModule: bad TER address " + bank);
    return it->second[index];
}

const std::vector<std::uint64_t> &
TrustModule::readBank(const std::string &bank) const
{
    const auto it = banks.find(bank);
    if (it == banks.end())
        throw std::out_of_range("TrustModule: unknown TER bank " + bank);
    return it->second;
}

AttestationSessionInfo
TrustModule::beginSession()
{
    Rng rng = drbg.forkRng();
    crypto::RsaKeyPair aik = crypto::rsaGenerateKeyPair(aikBits, rng);

    AttestationSessionInfo info;
    info.handle = nextHandle++;
    info.attestationKey = aik.pub;
    info.attestationKeySignature = signWithIdentity(aik.pub.encode());
    crypto::RsaPrivateContext ctx(aik.priv);
    sessions.emplace(info.handle, SessionKey{std::move(aik), std::move(ctx)});
    return info;
}

Result<Bytes>
TrustModule::signWithSession(SessionHandle handle,
                             const Bytes &message) const
{
    const auto it = sessions.find(handle);
    if (it == sessions.end())
        return Result<Bytes>::error("TrustModule: unknown session");
    return Result<Bytes>::ok(crypto::rsaSign(it->second.ctx, message));
}

void
TrustModule::endSession(SessionHandle handle)
{
    sessions.erase(handle);
}

} // namespace monatt::tpm
