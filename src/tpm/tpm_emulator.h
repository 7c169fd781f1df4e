/**
 * @file
 * Software TPM emulator.
 *
 * The paper's prototype "integrated the TPM-emulator [39] and
 * leveraged it to emulate the functions of the Trust Module in the
 * hardware". This class is the part of that emulator CloudMonatt
 * measures into: a PCR bank with the TCG extend semantics
 * (PCR <- H(PCR || H(data))). The Trust Module, not the TPM, signs
 * every quote, with a per-session attestation key (§3.4.2).
 */

#ifndef MONATT_TPM_TPM_EMULATOR_H
#define MONATT_TPM_TPM_EMULATOR_H

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace monatt::tpm
{

/** Number of PCRs, as in TPM 1.2. */
constexpr std::size_t kNumPcrs = 24;

/** Software TPM: a bank of kNumPcrs zeroed PCRs. */
class TpmEmulator
{
  public:
    TpmEmulator();

    /** Extend PCR `index` with `data` (TCG semantics). */
    void extend(std::uint32_t index, const Bytes &data);

    /** Read a PCR value. @throws std::out_of_range on a bad index. */
    const Bytes &pcrRead(std::uint32_t index) const;

    /** Reset all PCRs to zero (platform reboot). */
    void reset();

  private:
    std::vector<Bytes> pcrs;
};

} // namespace monatt::tpm

#endif // MONATT_TPM_TPM_EMULATOR_H
