/**
 * @file
 * AVX-512 lane primitives and the fused small-t NTT tail hook.
 *
 * Internal header: included only by kernels_avx512.cc and
 * kernels_avx512ifma.cc (both compiled with AVX-512 F + DQ + VL), which
 * instantiate the vector_kernels.hh templates on the Avx512 lane type:
 * the first with the 2^64 Shoup policy, the second with the 52-bit
 * IFMA one. Like the templates, everything here has internal linkage.
 *
 * Against AVX2 this gets native unsigned 64-bit compares (mask
 * registers), vpminuq for the conditional subtract and vpmullq for
 * low-64 products. High-64 products are still synthesized from 2x32-bit
 * vpmuludq splits: AVX-512F has no 64-bit mulhi.
 */

#ifndef IVE_POLY_SIMD_AVX512_LANES_HH
#define IVE_POLY_SIMD_AVX512_LANES_HH

#include <immintrin.h>

#include "poly/simd/vector_kernels.hh"

namespace ive::simd::vec {
namespace {

/** 8-lane u64 primitives (see vector_kernels.hh for the contract). */
struct Avx512
{
    static constexpr u64 kLanes = 8;
    using Reg = __m512i;

    static Reg load(const u64 *p) { return _mm512_loadu_si512(p); }
    static void store(u64 *p, Reg v) { _mm512_storeu_si512(p, v); }
    static Reg
    set1(u64 x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    static Reg add(Reg a, Reg b) { return _mm512_add_epi64(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm512_sub_epi64(a, b); }
    /** a - q wraps huge when a < q, so the unsigned min picks a. */
    static Reg csub(Reg a, Reg q) { return _mm512_min_epu64(a, sub(a, q)); }
    static Reg mul32(Reg a, Reg b) { return _mm512_mul_epu32(a, b); }
    static Reg mulLo64(Reg a, Reg b) { return _mm512_mullo_epi64(a, b); }

    static Reg
    mulHi64(Reg a, Reg b)
    {
        const Reg lo_mask = _mm512_set1_epi64(0xffffffffLL);
        const Reg a1 = _mm512_srli_epi64(a, 32);
        const Reg b1 = _mm512_srli_epi64(b, 32);
        const Reg t00 = _mm512_mul_epu32(a, b);
        const Reg t01 = _mm512_mul_epu32(a, b1);
        const Reg t10 = _mm512_mul_epu32(a1, b);
        const Reg t11 = _mm512_mul_epu32(a1, b1);
        const Reg mid = add(add(_mm512_srli_epi64(t00, 32),
                                _mm512_and_si512(t01, lo_mask)),
                            _mm512_and_si512(t10, lo_mask));
        return add(add(t11, _mm512_srli_epi64(t01, 32)),
                   add(_mm512_srli_epi64(t10, 32),
                       _mm512_srli_epi64(mid, 32)));
    }

    static Reg
    addIfLess(Reg d, Reg a, Reg b, Reg q)
    {
        return _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(a, b), d,
                                     q);
    }

    static Reg
    zeroIfZero(Reg x, Reg v)
    {
        return _mm512_maskz_mov_epi64(_mm512_test_epi64_mask(v, v), x);
    }
};

// --- fused small-t NTT tail ------------------------------------------
//
// The three stages with butterfly width t = 4, 2, 1 touch every
// element once each but have too few contiguous lanes for the plain
// vector loop; running them scalar costs more than all the wide stages
// combined. Instead, each 16-element chunk is held in two registers
// across all three stages, with per-stage cross-lane permutes
// gathering the x/y halves and twiddle replication matching the block
// structure (chunk c covers blocks [2c, 2c+2) at t = 4, [4c, 4c+4) at
// t = 2, [8c, 8c+8) at t = 1 — twiddles are contiguous in the
// bit-reversed tables). The NTT templates hand in their butterfly, so
// the 2^64 and the 52-bit Shoup policies share the machinery.

struct TailIdx
{
    __m512i extA4, extB4; // t=4 gather (also its own merge inverse)
    __m512i extA2, extB2, mergeA2, mergeB2;
    __m512i extA1, extB1, mergeA1, mergeB1;
    __m512i rep4, rep2; // twiddle replication patterns
};

inline TailIdx
tailIdx()
{
    TailIdx ix;
    ix.extA4 = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    ix.extB4 = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    ix.extA2 = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
    ix.extB2 = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
    ix.mergeA2 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    ix.mergeB2 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    ix.extA1 = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    ix.extB1 = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    ix.mergeA1 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    ix.mergeB1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    ix.rep4 = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    ix.rep2 = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    return ix;
}

/** Twiddle pair for one tail stage of chunk c; words per chunk: 2 at
 *  t=4 (replicated x4), 4 at t=2 (x2), 8 at t=1 (direct load). */
inline __m512i
tailTw2(const u64 *base, __m512i rep)
{
    return _mm512_permutexvar_epi64(
        rep, _mm512_castsi128_si512(_mm_loadu_si128(
                 reinterpret_cast<const __m128i *>(base))));
}

inline __m512i
tailTw4(const u64 *base, __m512i rep)
{
    return _mm512_permutexvar_epi64(
        rep, _mm512_castsi256_si512(_mm256_loadu_si256(
                 reinterpret_cast<const __m256i *>(base))));
}

/**
 * The NTT templates' tail hook: runs the stages t = 4, 2, 1 (every
 * stage narrower than an Avx512 register) when n >= 16, and reports
 * whether it did. bf(x, y, w, ws, nx, ny) is the template's butterfly.
 */
struct Avx512Tail
{
    static_assert(Avx512::kLanes == 8, "the tail covers t = 4, 2, 1");

    template <class Bf>
    static bool
    fwd(u64 *a, u64 n, const u64 *tw, const u64 *tws, Bf &&bf)
    {
        if (n < 16)
            return false;
        const TailIdx ix = tailIdx();
        for (u64 c = 0; c < n / 16; ++c) {
            u64 *p = a + 16 * c;
            __m512i za = _mm512_loadu_si512(p);
            __m512i zb = _mm512_loadu_si512(p + 8);
            __m512i nx, ny;
            // t = 4 (stage m = n/8): blocks 2c, 2c+1.
            bf(_mm512_permutex2var_epi64(za, ix.extA4, zb),
               _mm512_permutex2var_epi64(za, ix.extB4, zb),
               tailTw2(tw + n / 8 + 2 * c, ix.rep4),
               tailTw2(tws + n / 8 + 2 * c, ix.rep4), nx, ny);
            za = _mm512_permutex2var_epi64(nx, ix.extA4, ny);
            zb = _mm512_permutex2var_epi64(nx, ix.extB4, ny);
            // t = 2 (stage m = n/4): blocks 4c .. 4c+3.
            bf(_mm512_permutex2var_epi64(za, ix.extA2, zb),
               _mm512_permutex2var_epi64(za, ix.extB2, zb),
               tailTw4(tw + n / 4 + 4 * c, ix.rep2),
               tailTw4(tws + n / 4 + 4 * c, ix.rep2), nx, ny);
            za = _mm512_permutex2var_epi64(nx, ix.mergeA2, ny);
            zb = _mm512_permutex2var_epi64(nx, ix.mergeB2, ny);
            // t = 1 (stage m = n/2): blocks 8c .. 8c+7.
            bf(_mm512_permutex2var_epi64(za, ix.extA1, zb),
               _mm512_permutex2var_epi64(za, ix.extB1, zb),
               _mm512_loadu_si512(tw + n / 2 + 8 * c),
               _mm512_loadu_si512(tws + n / 2 + 8 * c), nx, ny);
            za = _mm512_permutex2var_epi64(nx, ix.mergeA1, ny);
            zb = _mm512_permutex2var_epi64(nx, ix.mergeB1, ny);
            _mm512_storeu_si512(p, za);
            _mm512_storeu_si512(p + 8, zb);
        }
        return true;
    }

    /** Stages t = 1, 2, 4: the forward chunk and twiddle layout in
     *  reverse stage order. */
    template <class Bf>
    static bool
    inv(u64 *a, u64 n, const u64 *tw, const u64 *tws, Bf &&bf)
    {
        if (n < 16)
            return false;
        const TailIdx ix = tailIdx();
        for (u64 c = 0; c < n / 16; ++c) {
            u64 *p = a + 16 * c;
            __m512i za = _mm512_loadu_si512(p);
            __m512i zb = _mm512_loadu_si512(p + 8);
            __m512i nx, ny;
            // t = 1 (h = n/2).
            bf(_mm512_permutex2var_epi64(za, ix.extA1, zb),
               _mm512_permutex2var_epi64(za, ix.extB1, zb),
               _mm512_loadu_si512(tw + n / 2 + 8 * c),
               _mm512_loadu_si512(tws + n / 2 + 8 * c), nx, ny);
            za = _mm512_permutex2var_epi64(nx, ix.mergeA1, ny);
            zb = _mm512_permutex2var_epi64(nx, ix.mergeB1, ny);
            // t = 2 (h = n/4).
            bf(_mm512_permutex2var_epi64(za, ix.extA2, zb),
               _mm512_permutex2var_epi64(za, ix.extB2, zb),
               tailTw4(tw + n / 4 + 4 * c, ix.rep2),
               tailTw4(tws + n / 4 + 4 * c, ix.rep2), nx, ny);
            za = _mm512_permutex2var_epi64(nx, ix.mergeA2, ny);
            zb = _mm512_permutex2var_epi64(nx, ix.mergeB2, ny);
            // t = 4 (h = n/8).
            bf(_mm512_permutex2var_epi64(za, ix.extA4, zb),
               _mm512_permutex2var_epi64(za, ix.extB4, zb),
               tailTw2(tw + n / 8 + 2 * c, ix.rep4),
               tailTw2(tws + n / 8 + 2 * c, ix.rep4), nx, ny);
            za = _mm512_permutex2var_epi64(nx, ix.extA4, ny);
            zb = _mm512_permutex2var_epi64(nx, ix.extB4, ny);
            _mm512_storeu_si512(p, za);
            _mm512_storeu_si512(p + 8, zb);
        }
        return true;
    }
};

} // namespace
} // namespace ive::simd::vec

#endif // IVE_POLY_SIMD_AVX512_LANES_HH
