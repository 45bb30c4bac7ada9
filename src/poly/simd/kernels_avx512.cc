/**
 * @file
 * AVX-512 backend: 8-lane u64 kernels (requires F + DQ + VL).
 *
 * The kernel bodies are the shared vector_kernels.hh templates on the
 * Avx512 lane type (avx512_lanes.hh), the NTTs with the 2^64 Shoup
 * policy and the fused t = 4/2/1 tail; the IFMA TU supplies the 52-bit
 * butterflies for moduli below 2^50. This TU holds only the table.
 *
 * Compiled with -mavx512f -mavx512dq -mavx512vl in its own TU; only
 * reached behind the runtime cpuid check in simd.cc. Same contracts as
 * every backend (see simd.hh): outputs bit-identical to scalar,
 * rowSelMac inputs < 2^32.
 */

#include "poly/simd/avx512_lanes.hh"
#include "poly/simd/backends.hh"
#include "poly/simd/vector_kernels.hh"

namespace ive::simd {

using vec::Avx512;

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
    &vec::rowSelMac<Avx512>,
    &vec::lazyReduceAdd<Avx512>,
};

} // namespace ive::simd
