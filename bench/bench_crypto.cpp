/**
 * @file
 * Micro benchmarks of the crypto substrate (the Trust Module's Crypto
 * Engine). Backs the paper's claim that "the emulation of the Trust
 * Module has little impact on the system performance": all per-
 * attestation crypto costs are sub-millisecond to low-millisecond on
 * commodity hardware.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"

using namespace monatt;
using namespace monatt::crypto;

namespace
{

const RsaKeyPair &
keyPair512()
{
    static const RsaKeyPair kp = [] {
        Rng rng(1);
        return rsaGenerateKeyPair(512, rng);
    }();
    return kp;
}

const RsaKeyPair &
keyPair1024()
{
    static const RsaKeyPair kp = [] {
        Rng rng(2);
        return rsaGenerateKeyPair(1024, rng);
    }();
    return kp;
}

void
BM_Sha256(benchmark::State &state)
{
    Rng rng(3);
    const Bytes data = rng.nextBytes(static_cast<std::size_t>(
        state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(Sha256::hash(data));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_HmacSha256(benchmark::State &state)
{
    Rng rng(4);
    const Bytes key = rng.nextBytes(32);
    const Bytes data = rng.nextBytes(1024);
    for (auto _ : state)
        benchmark::DoNotOptimize(hmacSha256(key, data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_HmacSha256);

void
BM_HmacSha256Keyed(benchmark::State &state)
{
    // The record layer's regime: the pad blocks are absorbed once per
    // key, so each MAC pays only for the message and two finishes.
    Rng rng(4);
    const HmacSha256 keyed(rng.nextBytes(32));
    const Bytes data = rng.nextBytes(1024);
    for (auto _ : state)
        benchmark::DoNotOptimize(keyed.mac(data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_HmacSha256Keyed);

void
BM_Aes128Ctr(benchmark::State &state)
{
    Rng rng(5);
    const Aes128 aes(rng.nextBytes(16));
    const Bytes nonce = rng.nextBytes(12);
    const Bytes data = rng.nextBytes(static_cast<std::size_t>(
        state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(aes.ctrTransform(nonce, data));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Aes128Ctr)->Arg(1024)->Arg(16384);

void
BM_SecureChannelRecord(benchmark::State &state)
{
    // One protocol hop on an established channel: the sender seals,
    // the receiver opens. perfbench's mean hop is 226 bytes.
    HmacDrbg clientDrbg(toBytes("bench-client")),
        serverDrbg(toBytes("bench-server"));
    net::ClientHandshake hello("client", "server", keyPair512(),
                               keyPair1024().pub, clientDrbg);
    net::ServerHandshake responder("server", keyPair1024(), serverDrbg);
    auto accepted = responder.accept(hello.helloMessage(),
                                     keyPair512().pub);
    if (!accepted) {
        state.SkipWithError(accepted.errorMessage().c_str());
        return;
    }
    net::SecureChannel server = std::move(accepted.value().channel);
    net::SecureChannel client = hello.finish(accepted.value().reply).take();

    Rng rng(9);
    const Bytes payload = rng.nextBytes(static_cast<std::size_t>(
        state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(server.open(client.seal(payload)));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_SecureChannelRecord)->Arg(64)->Arg(226)->Arg(1024);

/** Full-width modular exponentiation operands: an RSA private-key
 * shaped workload (base and exponent as wide as the modulus — worst
 * case for the ladder; the e=65537 public path is far cheaper). At 256
 * bits they are one CRT half of a 512-bit key, p and dP, the size of
 * every Miller-Rabin round in its key generation too. */
struct ModExpOperands
{
    BigUint base, exp, mod;
};

ModExpOperands
modExpOperands(std::size_t bits)
{
    const RsaKeyPair &kp = bits == 1024 ? keyPair1024() : keyPair512();
    ModExpOperands ops;
    ops.mod = bits == 256 ? kp.priv.p : kp.pub.n;
    ops.exp = bits == 256 ? kp.priv.dP : kp.priv.d;
    Rng rng(7 + bits);
    ops.base = BigUint::fromBytes(rng.nextBytes(bits / 8)) % ops.mod;
    return ops;
}

void
BM_ModExpLegacy(benchmark::State &state)
{
    const ModExpOperands ops =
        modExpOperands(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(ops.base.modExpLegacy(ops.exp, ops.mod));
}
BENCHMARK(BM_ModExpLegacy)->Arg(512)->Arg(1024);

void
BM_ModExpMontgomery(benchmark::State &state)
{
    // Context construction inside the loop: the honest apples-to-apples
    // replacement for one legacy modExp call on a fresh modulus.
    const ModExpOperands ops =
        modExpOperands(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const MontgomeryContext ctx(ops.mod);
        benchmark::DoNotOptimize(ops.base.modExp(ops.exp, ctx));
    }
}
BENCHMARK(BM_ModExpMontgomery)->Arg(512)->Arg(1024);

void
BM_ModExpMontgomeryCtxReuse(benchmark::State &state)
{
    // Precomputed context amortized across calls — the RSA hot path
    // (RsaPublicContext / RsaPrivateContext) runs in this regime.
    const ModExpOperands ops =
        modExpOperands(static_cast<std::size_t>(state.range(0)));
    const MontgomeryContext ctx(ops.mod);
    for (auto _ : state)
        benchmark::DoNotOptimize(ops.base.modExp(ops.exp, ctx));
}
BENCHMARK(BM_ModExpMontgomeryCtxReuse)->Arg(256)->Arg(512)->Arg(1024);

void
BM_RsaSign(benchmark::State &state)
{
    const RsaKeyPair &kp =
        state.range(0) == 512 ? keyPair512() : keyPair1024();
    const RsaPrivateContext ctx(kp.priv);
    const Bytes msg = toBytes("attestation report payload");
    for (auto _ : state)
        benchmark::DoNotOptimize(rsaSign(ctx, msg));
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024);

void
BM_RsaVerify(benchmark::State &state)
{
    const RsaKeyPair &kp =
        state.range(0) == 512 ? keyPair512() : keyPair1024();
    const RsaPublicContext ctx(kp.pub);
    const Bytes msg = toBytes("attestation report payload");
    const Bytes sig = rsaSign(RsaPrivateContext(kp.priv), msg);
    for (auto _ : state)
        benchmark::DoNotOptimize(rsaVerify(ctx, msg, sig));
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

void
BM_RsaKeygenAik(benchmark::State &state)
{
    // The per-session attestation key of §3.4.2 (the ablation bench
    // prices its simulated cost; this is the real computational cost).
    Rng rng(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rsaGenerateKeyPair(static_cast<std::size_t>(state.range(0)),
                               rng));
    }
}
BENCHMARK(BM_RsaKeygenAik)->Arg(512)->Unit(benchmark::kMillisecond);

void
BM_GeneratePrime(benchmark::State &state)
{
    // One prime of a key pair: the sieve plus Miller-Rabin on each
    // survivor, 12 rounds on the 256-bit prime it returns.
    Rng rng(8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(BigUint::generatePrime(
            static_cast<std::size_t>(state.range(0)), rng));
    }
}
BENCHMARK(BM_GeneratePrime)->Arg(256)->Unit(benchmark::kMicrosecond);

void
BM_HmacDrbg(benchmark::State &state)
{
    HmacDrbg drbg(toBytes("bench-seed"));
    for (auto _ : state)
        benchmark::DoNotOptimize(drbg.generate(32));
}
BENCHMARK(BM_HmacDrbg);

} // namespace

BENCHMARK_MAIN();
