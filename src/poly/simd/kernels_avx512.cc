/**
 * @file
 * AVX-512 backend: 8-lane u64 kernels (requires F + DQ + VL).
 *
 * The kernel bodies are the shared vector_kernels.hh templates on the
 * Avx512 lane type (avx512_lanes.hh), the NTTs with the 2^64 Shoup
 * policy and the fused t = 4/2/1 tail; the IFMA TU supplies the 52-bit
 * butterflies for moduli below 2^50. This TU keeps only what is
 * AVX-512-specific: macAccumulate's mask-register carries and the
 * vpscatterqq automorphism permutation.
 *
 * Compiled with -mavx512f -mavx512dq -mavx512vl in its own TU; only
 * reached behind the runtime cpuid check in simd.cc. Same contracts as
 * every backend (see simd.hh): outputs bit-identical to scalar,
 * macAccumulate and rowSelMac inputs < 2^32, macReduce accumulator
 * high words < 2^32.
 */

#include <immintrin.h>

#include "poly/simd/avx512_lanes.hh"
#include "poly/simd/backends.hh"
#include "poly/simd/vector_kernels.hh"

namespace ive::simd {
namespace {

using vec::Avx512;
constexpr u64 kLanes = Avx512::kLanes;

void
macAccumulate(u128 *acc, const u64 *a, const u64 *b, u64 n)
{
    u64 *mem = reinterpret_cast<u64 *>(acc);
    // Spread products into the lo slots of the interleaved u128 pairs:
    // element e of p goes to lane 2e (acc lo), odd lanes stay zero.
    const __m512i idx_lo = _mm512_setr_epi64(0, 0, 1, 0, 2, 0, 3, 0);
    const __m512i idx_hi = _mm512_setr_epi64(4, 0, 5, 0, 6, 0, 7, 0);
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i av = _mm512_loadu_si512(a + i);
        __m512i bv = _mm512_loadu_si512(b + i);
        __m512i p = _mm512_mul_epu32(av, bv); // inputs < 2^32
        __m512i pe0 = _mm512_maskz_permutexvar_epi64(0x55, idx_lo, p);
        __m512i pe1 = _mm512_maskz_permutexvar_epi64(0x55, idx_hi, p);
        u64 *m0 = mem + 2 * i;
        __m512i acc0 = _mm512_loadu_si512(m0);
        __m512i acc1 = _mm512_loadu_si512(m0 + 8);
        __m512i s0 = _mm512_add_epi64(acc0, pe0);
        __m512i s1 = _mm512_add_epi64(acc1, pe1);
        // Lo-lane carries bump the neighbouring hi lane.
        __mmask8 c0 = _mm512_cmplt_epu64_mask(s0, pe0);
        __mmask8 c1 = _mm512_cmplt_epu64_mask(s1, pe1);
        __m512i one = _mm512_set1_epi64(1);
        s0 = _mm512_mask_add_epi64(
            s0, static_cast<__mmask8>(c0 << 1), s0, one);
        s1 = _mm512_mask_add_epi64(
            s1, static_cast<__mmask8>(c1 << 1), s1, one);
        _mm512_storeu_si512(m0, s0);
        _mm512_storeu_si512(m0 + 8, s1);
    }
    if (i < n)
        scalar::macAccumulate(acc + i, a + i, b + i, n - i);
}

void
applyCoeffMap(u64 *dst, const u64 *src, const u64 *map, u64 n, u64 q)
{
    // The map is a bijection, so the scatter never has lane conflicts.
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i zero = _mm512_setzero_si512();
    __m512i one = _mm512_set1_epi64(1);
    u64 i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        __m512i m = _mm512_loadu_si512(map + i);
        __m512i v = _mm512_loadu_si512(src + i);
        __m512i pos = _mm512_srli_epi64(m, 1);
        __mmask8 flip = _mm512_test_epi64_mask(m, one);
        __mmask8 nz = _mm512_cmpneq_epu64_mask(v, zero);
        // flip && v != 0 -> q - v; flip && v == 0 -> 0 (== v).
        __m512i neg = _mm512_sub_epi64(qv, v);
        __m512i val =
            _mm512_mask_blend_epi64(flip & nz, v, neg);
        _mm512_i64scatter_epi64(dst, pos, val, 8);
    }
    // Map positions are absolute: the tail keeps the full dst base.
    if (i < n)
        scalar::applyCoeffMap(dst, src + i, map + i, n - i, q);
}

} // namespace

const Kernels kAvx512Kernels = {
    Isa::Avx512,
    "avx512",
    &vec::nttForwardLazy<Avx512, vec::Shoup64<Avx512>, vec::Avx512Tail>,
    &vec::nttInverseLazy<Avx512, vec::Shoup64<Avx512>, vec::Avx512Tail>,
    &vec::addVec<Avx512>,
    &vec::subVec<Avx512>,
    &vec::negVec<Avx512>,
    &vec::mulVec<Avx512>,
    &vec::mulShoupVec<Avx512>,
    &vec::canonicalizeVec<Avx512>,
    &vec::mulAccVec<Avx512>,
    &macAccumulate,
    &vec::macReduce<Avx512, false>,
    &vec::macReduce<Avx512, true>,
    &vec::rowSelMac<Avx512>,
    &vec::lazyReduceAdd<Avx512>,
    &applyCoeffMap,
};

} // namespace ive::simd
