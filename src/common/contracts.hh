/**
 * @file
 * Machine-checked range contracts for the lazy-reduction kernels.
 *
 * The lazy NTT/MAC redesign (PR 4/5) made correctness hang on value
 * ranges that normal tests cannot see: forward-NTT intermediates must
 * stay in [0, 4q), inverse in [0, 2q), a u64 lazy MAC chain must end
 * (be reduced) within floor((2^64-1)/(q-1)^2) links, and Shoup
 * multiplicands must be canonical. A violated
 * bound does not crash — it silently wraps and produces a wrong (and
 * often still-decryptable) result.
 *
 * ive_contract(cond, contract) turns each documented bound into an
 * executable audit. Under -DIVE_CHECK_RANGES=ON (CMake option) the
 * scalar kernel backend verifies every bound on every call and a
 * violation throws ContractViolation naming the broken contract;
 * tests/test_contracts.cc proves each one fires on deliberately
 * corrupted values. In normal builds the macro expands to ((void)0)
 * and the audit helpers compile to empty inline functions, so the hot
 * path is untouched (goldens and BENCH_e2e.json stay identical).
 *
 * Throwing (rather than abort) keeps the checked build usable from
 * gtest without death tests and lets a checked server reject a
 * corrupt computation without taking the process down.
 */

#ifndef IVE_COMMON_CONTRACTS_HH
#define IVE_COMMON_CONTRACTS_HH

#include "common/error.hh" // ContractViolation lives in the taxonomy.

// Defined (=1) by the IVE_CHECK_RANGES CMake option.
#if defined(IVE_CHECK_RANGES)
#define IVE_RANGE_CHECKS_ENABLED 1
#else
#define IVE_RANGE_CHECKS_ENABLED 0
#endif

namespace ive {

/** Throws ContractViolation with the contract name and location. */
[[noreturn]] void contractFailure(const char *contract, const char *expr,
                                  const char *file, int line);

} // namespace ive

#if IVE_RANGE_CHECKS_ENABLED
#define ive_contract(cond, contract)                                      \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::ive::contractFailure(contract, #cond, __FILE__, __LINE__);   \
        }                                                                  \
    } while (0)
#else
#define ive_contract(cond, contract) ((void)0)
#endif

#endif // IVE_COMMON_CONTRACTS_HH
