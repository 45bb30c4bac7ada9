/**
 * @file
 * AVX2 backend: 4-lane u64 kernels.
 *
 * The kernel bodies are the shared vector_kernels.hh templates; this TU
 * supplies only their 4-lane primitives and the table.
 * AVX2 has no 64-bit multiplier, so every 64x64 product is synthesized
 * from 2x32-bit vpmuludq splits (mulHi64/mulLo64 below); values known
 * to be < 2^32 (fused-MAC residues, < 2^32 modulus products) use a
 * single vpmuludq. Unsigned 64-bit compares go through the usual
 * sign-bias trick since AVX2 only compares signed.
 *
 * Compiled with -mavx2 in its own TU; only reached behind the runtime
 * cpuid check in simd.cc, so the rest of the binary stays plain
 * x86-64.
 *
 * Contracts (shared with all backends, see simd.hh):
 *  - rowSelMac inputs are < 2^32 (the fused MAC chain only runs below
 *    32-bit moduli)
 *  - everything produces outputs bit-identical to the scalar backend
 */

#include <immintrin.h>

#include "poly/simd/backends.hh"
#include "poly/simd/vector_kernels.hh"

namespace ive::simd {
namespace {

/** 4-lane u64 primitives (see vector_kernels.hh for the contract). */
struct Avx2
{
    static constexpr u64 kLanes = 4;
    using Reg = __m256i;

    static Reg
    load(const u64 *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void
    store(u64 *p, Reg v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static Reg
    set1(u64 x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }
    static Reg add(Reg a, Reg b) { return _mm256_add_epi64(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_epi64(a, b); }
    static Reg mul32(Reg a, Reg b) { return _mm256_mul_epu32(a, b); }

    /** Lane mask (all-ones / zero) of a < b, unsigned 64-bit. */
    static Reg
    ltU64(Reg a, Reg b)
    {
        const Reg bias = set1(0x8000000000000000ULL);
        return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                                  _mm256_xor_si256(a, bias));
    }

    static Reg
    csub(Reg a, Reg q)
    {
        return _mm256_blendv_epi8(sub(a, q), a, ltU64(a, q));
    }

    static Reg
    mulHi64(Reg a, Reg b)
    {
        const Reg lo_mask = _mm256_set1_epi64x(0xffffffffLL);
        const Reg a1 = _mm256_srli_epi64(a, 32);
        const Reg b1 = _mm256_srli_epi64(b, 32);
        const Reg t00 = _mm256_mul_epu32(a, b);
        const Reg t01 = _mm256_mul_epu32(a, b1);
        const Reg t10 = _mm256_mul_epu32(a1, b);
        const Reg t11 = _mm256_mul_epu32(a1, b1);
        const Reg mid = add(add(_mm256_srli_epi64(t00, 32),
                                _mm256_and_si256(t01, lo_mask)),
                            _mm256_and_si256(t10, lo_mask));
        return add(add(t11, _mm256_srli_epi64(t01, 32)),
                   add(_mm256_srli_epi64(t10, 32),
                       _mm256_srli_epi64(mid, 32)));
    }

    static Reg
    mulLo64(Reg a, Reg b)
    {
        const Reg cross = add(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                              _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
        return add(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
    }

    static Reg
    addIfLess(Reg d, Reg a, Reg b, Reg q)
    {
        return add(d, _mm256_and_si256(ltU64(a, b), q));
    }

    static Reg
    zeroIfZero(Reg x, Reg v)
    {
        return _mm256_andnot_si256(
            _mm256_cmpeq_epi64(v, _mm256_setzero_si256()), x);
    }
};

} // namespace

const Kernels kAvx2Kernels = {
    Isa::Avx2,
    "avx2",
    &vec::nttForwardLazy<Avx2, vec::Shoup64<Avx2>, vec::NoTail>,
    &vec::nttInverseLazy<Avx2, vec::Shoup64<Avx2>, vec::NoTail>,
    &vec::addVec<Avx2>,
    &vec::subVec<Avx2>,
    &vec::negVec<Avx2>,
    &vec::mulVec<Avx2>,
    &vec::mulShoupVec<Avx2>,
    &vec::canonicalizeVec<Avx2>,
    &vec::mulAccVec<Avx2>,
    &vec::rowSelMac<Avx2>,
    &vec::lazyReduceAdd<Avx2>,
};

} // namespace ive::simd
