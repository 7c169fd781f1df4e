#include "tpm/tpm_emulator.h"

#include <stdexcept>

#include "crypto/sha256.h"

namespace monatt::tpm
{

TpmEmulator::TpmEmulator()
    : pcrs(kNumPcrs, Bytes(crypto::kSha256DigestSize, 0x00))
{
}

void
TpmEmulator::extend(std::uint32_t index, const Bytes &data)
{
    if (index >= kNumPcrs)
        throw std::out_of_range("TpmEmulator::extend: bad PCR index");
    const Bytes dataDigest = crypto::Sha256::hash(data);
    pcrs[index] = crypto::Sha256::hashConcat({&pcrs[index], &dataDigest});
}

const Bytes &
TpmEmulator::pcrRead(std::uint32_t index) const
{
    if (index >= kNumPcrs)
        throw std::out_of_range("TpmEmulator::pcrRead: bad PCR index");
    return pcrs[index];
}

void
TpmEmulator::reset()
{
    for (auto &pcr : pcrs)
        pcr.assign(crypto::kSha256DigestSize, 0x00);
}

} // namespace monatt::tpm
