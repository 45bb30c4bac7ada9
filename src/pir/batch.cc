#include "pir/batch.hh"

#include "common/thread_pool.hh"
#include "obs/metrics.hh"

namespace ive {

std::vector<std::vector<BfvCiphertext>>
processBatch(const PirServer &server, const std::vector<PirQuery> &queries)
{
    // Queries are independent; batch-level parallelism takes the
    // coarse lane, and the per-query parallelism inside
    // processAllPlanes() degrades to inline execution on the workers.
    std::vector<std::vector<BfvCiphertext>> responses(queries.size());
    parallelFor(0, queries.size(), [&](u64 i) {
        responses[i] = server.processAllPlanes(queries[i]);
    });
    return responses;
}

CpuPhaseTimes
measureCpuQuery(const PirServer &server, const PirQuery &query)
{
    // Each stage call records its own duration into its stage
    // histogram (StageSpan); the phase times are the sum deltas.
    obs::Registry &r = obs::Registry::global();
    obs::Histogram *const stages[] = {
        &r.histogram(obs::names::kStageExpand),
        &r.histogram(obs::names::kStageSelectors),
        &r.histogram(obs::names::kStageRowsel),
        &r.histogram(obs::names::kStageFold),
    };
    u64 before[4];
    for (int i = 0; i < 4; ++i)
        before[i] = stages[i]->snapshot().sum;

    std::vector<BfvCiphertext> leaves = server.expandQuery(query);
    std::vector<RgswCiphertext> selectors = server.buildSelectors(leaves);
    std::vector<BfvCiphertext> entries = server.rowSel(leaves);
    (void)server.colTor(std::move(entries), selectors);

    auto sec = [&](int i) {
        return static_cast<double>(stages[i]->snapshot().sum - before[i]) /
               1e9;
    };
    return {sec(0), sec(1), sec(2), sec(3)};
}

CpuPhaseTimes
extrapolateCpu(const CpuPhaseTimes &measured,
               const PirParams &measured_params,
               const PirParams &target_params, double core_scale)
{
    auto ratio = [](double target, double base) {
        return base > 0 ? target / base : 0.0;
    };

    double entries_r =
        ratio(static_cast<double>(target_params.numEntries()) *
                  target_params.planes,
              static_cast<double>(measured_params.numEntries()) *
                  measured_params.planes);
    double folds_r =
        ratio(static_cast<double>((u64{1} << target_params.d) - 1) *
                  target_params.planes,
              static_cast<double>((u64{1} << measured_params.d) - 1) *
                  measured_params.planes);
    double expand_r =
        ratio(static_cast<double>(u64{1} << target_params.expansionDepth()),
              static_cast<double>(u64{1}
                                  << measured_params.expansionDepth()));
    double sel_r = ratio(static_cast<double>(target_params.d) *
                             target_params.he.ellRgsw,
                         static_cast<double>(measured_params.d) *
                             measured_params.he.ellRgsw);

    CpuPhaseTimes out;
    out.expandSec = measured.expandSec * expand_r / core_scale;
    out.selectorSec = measured.selectorSec * sel_r / core_scale;
    out.rowselSec = measured.rowselSec * entries_r / core_scale;
    out.coltorSec = measured.coltorSec * folds_r / core_scale;
    return out;
}

} // namespace ive
