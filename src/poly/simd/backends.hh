/**
 * @file
 * Internal linkage between the per-ISA translation units.
 *
 * Each backend TU defines one Kernels table; simd.cc resolves among
 * them. The vector tables are instantiations of the shared
 * vector_kernels.hh templates: a TU-local lane type per ISA (avx2 in
 * kernels_avx2.cc, avx512 in avx512_lanes.hh, shared by the generic
 * and the IFMA TU) and, for the NTTs, a lazy Shoup product policy (the
 * 2^64 one there, the 52-bit IFMA one in kernels_avx512ifma.cc).
 *
 * The scalar entry points are also declared here individually so the
 * vector templates can tail-call them for loop remainders and for
 * modulus classes outside their fast path (e.g. >= 2^32 primes in the
 * 32-bit product kernels) — keeping the "identical canonical output"
 * contract trivially true on every path. Not installed API: only the
 * simd TUs include this.
 */

#ifndef IVE_POLY_SIMD_BACKENDS_HH
#define IVE_POLY_SIMD_BACKENDS_HH

#include "poly/kernels.hh"
#include "poly/simd/simd.hh"

namespace ive::simd {

// --- shared scalar butterfly blocks ----------------------------------
//
// The vector backends fall back to these for degrees too small for the
// fused tail and for sub-vector-width stages; one definition keeps the
// lazy-range invariants in one place across every TU. Internal linkage:
// each TU compiles its own copy for its own ISA.

namespace {

/** One forward block: inputs < 4q, u drops to [0, 2q), the Shoup
 *  product lands in [0, 2q), so both outputs stay < 4q. */
inline void
scalarFwdButterflyBlock(u64 *x, u64 *y, u64 t, u64 w, u64 ws, u64 q)
{
    const u64 two_q = 2 * q;
    for (u64 j = 0; j < t; ++j) {
        u64 u = x[j];
        if (u >= two_q)
            u -= two_q;
        u64 v = kernels::mulShoupLazy(y[j], w, ws, q);
        x[j] = u + v;
        y[j] = u + two_q - v;
    }
}

/** One inverse block: inputs < 2q, both outputs return to [0, 2q). */
inline void
scalarInvButterflyBlock(u64 *x, u64 *y, u64 t, u64 w, u64 ws, u64 q)
{
    const u64 two_q = 2 * q;
    for (u64 j = 0; j < t; ++j) {
        u64 u = x[j];
        u64 v = y[j];
        u64 s = u + v;
        x[j] = s >= two_q ? s - two_q : s;
        y[j] = kernels::mulShoupLazy(u + two_q - v, w, ws, q);
    }
}

/**
 * RowSel lazy MAC over coefficients [from, n): the scalar body of
 * Kernels::rowSelMac, shared with the vector backends' loop tails.
 */
inline void
scalarRowSelMacRange(u64 *acc, const RowSelRun &run, u64 from, u64 n)
{
    for (u64 c = 0; c < run.cols; ++c) {
        u64 *acc_a = acc + 2 * c * n;
        u64 *acc_b = acc_a + n;
        for (u64 j = from; j < n; ++j) {
            acc_a[j] = 0;
            acc_b[j] = 0;
        }
        for (u64 i = 0; i < run.links; ++i) {
            const u64 *d = run.db[i * run.cols + c];
            const u64 *la = run.leafA[i];
            const u64 *lb = run.leafB[i];
            for (u64 j = from; j < n; ++j) {
                acc_a[j] += d[j] * la[j];
                acc_b[j] += d[j] * lb[j];
            }
        }
    }
}

} // namespace

extern const Kernels kScalarKernels;
#ifdef IVE_SIMD_HAVE_AVX2
extern const Kernels kAvx2Kernels;
#endif
#ifdef IVE_SIMD_HAVE_AVX512
extern const Kernels kAvx512Kernels;
#endif

#ifdef IVE_SIMD_HAVE_AVX512IFMA
namespace ifma {
/**
 * 52-bit-datapath butterflies (vpmadd52): valid when q < 2^50 —
 * NttTable only provides x2^52 companion twiddles below that bound, so
 * a non-null NttTwiddles::twShoup52 implies validity.
 */
void nttForwardLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t);
void nttInverseLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t, u64 n_inv, u64 n_inv_shoup,
                    u64 n_inv_shoup52);
} // namespace ifma
#endif

namespace scalar {

void nttForwardLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t);
void nttInverseLazy(u64 *a, u64 n, const Modulus &mod,
                    const NttTwiddles &t, u64 n_inv, u64 n_inv_shoup,
                    u64 n_inv_shoup52);
void addVec(u64 *dst, const u64 *src, u64 n, u64 q);
void subVec(u64 *dst, const u64 *src, u64 n, u64 q);
void negVec(u64 *dst, u64 n, u64 q);
void mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod);
void mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n,
                 u64 q);
void canonicalizeVec(u64 *a, u64 n, u64 q);
void mulAccVec(u64 *dst, const u64 *a, const u64 *b, u64 n,
               const Modulus &mod);
void rowSelMac(u64 *acc, const RowSelRun &run, u64 n, const Modulus &mod);
void lazyReduceAdd(u64 *dst, const u64 *acc, u64 n, const Modulus &mod);

} // namespace scalar

} // namespace ive::simd

#endif // IVE_POLY_SIMD_BACKENDS_HH
