/**
 * @file
 * AVX-512 IFMA butterflies: Shoup multiplies on the 52-bit multiplier.
 *
 * vpmadd52lo/hi multiply the low 52 bits of two lanes exactly, which is
 * IVE's hardware story in reverse: the paper's PEs keep 28-bit primes
 * so reductions are cheap; here the 52-bit datapath covers any modulus
 * below 2^50 with a 3-instruction lazy Shoup product, against ~12 for
 * the generic 64-bit split of the 2^64 policy:
 *
 *   approx = hi52(a * bs52)            with bs52 = floor(b * 2^52 / q)
 *   r      = (lo52(a*b) - lo52(approx*q)) mod 2^52
 *
 * For a < 4q and q < 2^50 the true r = a*b - approx*q lies in [0, 2q)
 * (error term a*(b*2^52 mod q)/2^52 < q), and since r < 2^52 the mod-
 * 2^52 subtraction recovers it exactly. Lazy intermediates can differ
 * from the 2^64-Shoup backends by multiples of q, but the final
 * canonicalization erases that: outputs stay bit-identical.
 *
 * This TU holds only that product, as the Shoup policy of the shared
 * NTT templates (vector_kernels.hh) on the Avx512 lanes with the fused
 * tail. NttTable only precomputes x2^52 companions below the 2^50
 * bound, so a null NttTwiddles::twShoup52 (bigger test primes) routes
 * back to the generic avx512 table. Compiled with -mavx512ifma in its
 * own TU; simd.cc patches these into the avx512 table only when cpuid
 * reports IFMA.
 */

#include <immintrin.h>

#include "poly/simd/avx512_lanes.hh"
#include "poly/simd/backends.hh"

namespace ive::simd::ifma {
namespace {

using vec::Avx512;

/** Lazy 52-bit Shoup product in [0, 2q); a < 4q, q < 2^50. */
struct Shoup52
{
    using Reg = __m512i;

    explicit Shoup52(u64 q) : qv(Avx512::set1(q)) {}

    template <class T>
    static T
    companion(T /*shoup64*/, T shoup52)
    {
        return shoup52;
    }

    Reg
    operator()(Reg a, Reg b, Reg bs52) const
    {
        const Reg approx = _mm512_madd52hi_epu64(zero, a, bs52);
        const Reg t1 = _mm512_madd52lo_epu64(zero, a, b);
        const Reg t2 = _mm512_madd52lo_epu64(zero, approx, qv);
        return _mm512_and_si512(_mm512_sub_epi64(t1, t2), mask52);
    }

    Reg qv;
    Reg zero = _mm512_setzero_si512();
    Reg mask52 = Avx512::set1((u64{1} << 52) - 1);
};

} // namespace

void
nttForwardLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb)
{
    if (tb.twShoup52 == nullptr)
        kAvx512Kernels.nttForwardLazy(a, n, mod, tb);
    else
        vec::nttForwardLazy<Avx512, Shoup52, vec::Avx512Tail>(a, n, mod,
                                                              tb);
}

void
nttInverseLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb,
               u64 n_inv, u64 n_inv_shoup, u64 n_inv_shoup52)
{
    if (tb.twShoup52 == nullptr)
        kAvx512Kernels.nttInverseLazy(a, n, mod, tb, n_inv, n_inv_shoup,
                                      n_inv_shoup52);
    else
        vec::nttInverseLazy<Avx512, Shoup52, vec::Avx512Tail>(
            a, n, mod, tb, n_inv, n_inv_shoup, n_inv_shoup52);
}

} // namespace ive::simd::ifma
