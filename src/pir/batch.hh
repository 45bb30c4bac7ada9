/**
 * @file
 * Multi-query batch execution and CPU phase timing.
 *
 * Batching (paper SIII-B) shares the database scan across queries:
 * functionally the queries are independent, so the batch runner simply
 * executes them against the same preprocessed database. The timing
 * helpers measure per-phase CPU cost on a resident-size database and
 * extrapolate the linear-in-D phases (RowSel, ColTor) to the paper's
 * multi-GB targets (see bench/bench_fig12_throughput.cc for the
 * methodology).
 */

#ifndef IVE_PIR_BATCH_HH
#define IVE_PIR_BATCH_HH

#include "pir/server.hh"

namespace ive {

/** Wall-clock seconds per pipeline phase for one query. */
struct CpuPhaseTimes
{
    double expandSec = 0.0;
    double selectorSec = 0.0;
    double rowselSec = 0.0;
    double coltorSec = 0.0;

    double
    totalSec() const
    {
        return expandSec + selectorSec + rowselSec + coltorSec;
    }
};

/**
 * Executes a batch of queries in parallel, one pool lane per query
 * (the in-process inter-query lane); returns every plane of each
 * query's response.
 */
std::vector<std::vector<BfvCiphertext>>
processBatch(const PirServer &server,
             const std::vector<PirQuery> &queries);

/**
 * Times each phase of a single query on the host CPU, as the growth
 * of the four stage-latency histograms (expand, selectors, rowsel,
 * fold) over the call. Exact only while no other query runs in the
 * process: a concurrent one would add its stages to the same sums.
 */
CpuPhaseTimes measureCpuQuery(const PirServer &server,
                              const PirQuery &query);

/**
 * Extrapolates measured times to a target parameter set: RowSel scales
 * with entry count, ColTor with the number of external products, and
 * Expand/selector costs with the expansion tree size. coreScale models
 * embarrassingly parallel multi-core execution (queries and database
 * rows are independent).
 */
CpuPhaseTimes extrapolateCpu(const CpuPhaseTimes &measured,
                             const PirParams &measured_params,
                             const PirParams &target_params,
                             double core_scale);

} // namespace ive

#endif // IVE_PIR_BATCH_HH
