#include "shard/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"

namespace ive {

namespace {

/** Shard calls that needed a retry: first attempt to success. */
obs::Histogram &
retryLatencyNs()
{
    static obs::Histogram &h = obs::Registry::global().histogram(
        obs::names::kRetryLatencyNs,
        "first-attempt-to-success latency of shard calls that needed "
        "at least one retry");
    return h;
}

} // namespace

double
backoffDelaySec(const FailoverConfig &cfg, u32 retry)
{
    double d = cfg.backoffBaseSec;
    for (u32 i = 0; i < retry && d < cfg.backoffCapSec; ++i)
        d *= 2.0;
    return std::min(d, cfg.backoffCapSec);
}

ShardCoordinator::ShardCoordinator(std::span<const u8> params_blob,
                                   u32 num_shards,
                                   const FailoverConfig &fo)
    : ShardCoordinator(deserializeParams(params_blob), num_shards, fo)
{
}

ShardCoordinator::ShardCoordinator(const PirParams &params,
                                   u32 num_shards,
                                   const FailoverConfig &fo)
    : params_(params), ctx_(params_.he), numShards_(num_shards), fo_(fo),
      queries_(obs::Registry::global().counter(
          obs::names::kShardQueries,
          "queries folded by shard coordinators")),
      broadcastBytes_(obs::Registry::global().counter(
          obs::names::kShardBroadcastBytes,
          "query bytes broadcast to shards")),
      gatherBytes_(obs::Registry::global().counter(
          obs::names::kShardGatherBytes,
          "partial-response bytes gathered from shards")),
      retries_(obs::Registry::global().counter(
          obs::names::kShardRetries, "re-attempted shard replica calls")),
      failovers_(obs::Registry::global().counter(
          obs::names::kFailovers,
          "shard retries that switched to another replica")),
      deadlineMisses_(obs::Registry::global().counter(
          obs::names::kDeadlineMissShard,
          "shard replica calls cut off by the per-call deadline"))
{
    if (fo_.replicas == 0)
        throw std::invalid_argument(
            "ShardCoordinator: replicas must be >= 1");
    // The shard session constructor validates the topology (power of
    // two, at most 2^d) and throws std::invalid_argument otherwise.
    engines_.reserve(static_cast<size_t>(num_shards) * fo_.replicas);
    for (u32 s = 0; s < num_shards; ++s)
        for (u32 r = 0; r < fo_.replicas; ++r)
            engines_.push_back(
                std::make_unique<ShardServer>(params_, s, num_shards));
}

ShardCoordinator::~ShardCoordinator()
{
    // Deadline-abandoned replica calls are joined, not detached: the
    // hang failpoint self-releases after its cap and the delay
    // failpoint's sleep is finite, so this wait is bounded.
    std::vector<std::thread> abandoned;
    {
        LockGuard lk(watchdogMu_);
        abandoned.swap(abandoned_);
    }
    for (std::thread &t : abandoned)
        t.join();
}

ShardServer &
ShardCoordinator::shard(u32 slice)
{
    return replica(slice, 0);
}

ShardServer &
ShardCoordinator::replica(u32 slice, u32 r)
{
    ive_assert(slice < numShards_ && r < fo_.replicas);
    return *engines_[static_cast<size_t>(slice) * fo_.replicas + r];
}

void
ShardCoordinator::fillDatabase(const Database::Generator &gen)
{
    // Slices are disjoint and replicas independent; fill every engine
    // concurrently. The generator receives global record ids, so each
    // replica's content is the same one big Database::fill would
    // produce — the precondition for failover byte-identity.
    parallelFor(0, engines_.size(),
                [&](u64 i) { engines_[i]->database().fill(gen); });
}

void
ShardCoordinator::ingestKeys(std::span<const u8> key_blob)
{
    for (auto &engine : engines_)
        engine->ingestKeys(key_blob);
    // The finishing engine holds no database slice: it only expands
    // queries into selectors and runs the last tournament levels.
    foldServer_ = std::make_unique<PirServer>(
        ctx_, params_,
        /*db=*/nullptr,
        deserializeCompatibleKeys(ctx_, params_, key_blob));
}

std::vector<u8>
ShardCoordinator::callReplica(ShardServer &srv,
                              std::span<const u8> query_blob)
{
    if (fo_.shardDeadlineSec <= 0.0)
        return srv.answerPartial(query_blob);

    // Watchdog path: run the call on its own thread and wait no longer
    // than the deadline. On expiry the call is abandoned — its thread
    // is parked for the destructor to join — and the slice moves on to
    // the next replica. The blob is copied into shared ownership so an
    // abandoned call never reads freed caller memory.
    auto blob = std::make_shared<const std::vector<u8>>(
        query_blob.begin(), query_blob.end());
    std::packaged_task<std::vector<u8>()> task(
        [&srv, blob] { return srv.answerPartial(*blob); });
    std::future<std::vector<u8>> fut = task.get_future();
    std::thread runner(std::move(task));
    if (fut.wait_for(std::chrono::duration<double>(
            fo_.shardDeadlineSec)) == std::future_status::ready) {
        runner.join();
        return fut.get(); // Value, or the call's own exception.
    }
    {
        LockGuard lk(watchdogMu_);
        abandoned_.push_back(std::move(runner));
    }
    deadlineMisses_.add(1);
    throw DeadlineExceeded(strprintf(
        "shard %u replica call exceeded its %.3fs deadline",
        srv.shard(), fo_.shardDeadlineSec));
}

std::vector<u8>
ShardCoordinator::gatherSlice(u32 slice,
                              std::span<const u8> query_blob)
{
    const u32 attempts =
        fo_.maxAttempts ? fo_.maxAttempts : 2 * fo_.replicas;
    const u64 t0 = obs::nowNs();
    for (u32 a = 0;; ++a) {
        const u32 r = a % fo_.replicas;
        try {
            std::vector<u8> partial =
                callReplica(replica(slice, r), query_blob);
            if (a > 0)
                retryLatencyNs().record(obs::nowNs() - t0);
            return partial;
        } catch (const Error &e) {
            // Typed serving failures (injected faults, deadline
            // expiry, checked-build contract violations) are
            // retryable: every replica computes the identical partial,
            // so any other live replica can stand in. API misuse
            // (std::logic_error) propagates immediately.
            if (a + 1 >= attempts)
                throw ShardUnavailable(strprintf(
                    "shard %u unavailable: %u replica(s), %u attempts, "
                    "last error: %s",
                    slice, fo_.replicas, attempts, e.what()));
            retries_.add(1);
            if ((a + 1) % fo_.replicas != r)
                failovers_.add(1);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoffDelaySec(fo_, a)));
        }
    }
}

std::vector<u8>
ShardCoordinator::answer(std::span<const u8> query_blob)
{
    obs::Tracer::QueryTrace trace("shard_answer");
    // Parse once up front: a malformed query must reach no shard (and
    // must surface as SerializeError, never burn the retry budget).
    PirQuery query = deserializeQuery(ctx_, query_blob);

    // Broadcast to EVERY slice: a selective send would leak which
    // slice holds the requested record. Slices are independent; fan
    // out on the pool (their internal parallelFor nests inline).
    // Failover happens inside each slice's gather, so one slow or
    // broken replica never blocks the other slices' progress.
    std::vector<std::vector<u8>> partials(numShards_);
    parallelFor(0, numShards_, [&](u64 s) {
        partials[s] = gatherSlice(static_cast<u32>(s), query_blob);
    });
    broadcastBytes_.add(query_blob.size() * numShards_);
    return finishFold(query, partials);
}

std::vector<u8>
ShardCoordinator::foldPartials(
    std::span<const u8> query_blob,
    const std::vector<std::vector<u8>> &partial_blobs)
{
    PirQuery query = deserializeQuery(ctx_, query_blob);
    return finishFold(query, partial_blobs);
}

std::vector<u8>
ShardCoordinator::finishFold(
    const PirQuery &query,
    const std::vector<std::vector<u8>> &partial_blobs)
{
    if (!foldServer_)
        throw std::logic_error(
            "ShardCoordinator: no client keys ingested yet");
    u32 n = numShards();
    if (partial_blobs.size() != n)
        throw SerializeError(strprintf(
            "gathered %zu partials, deployment has %u shards",
            partial_blobs.size(), n));

    // Decode and order by shard index; the set must be complete (every
    // shard exactly once) and agree on the topology and plane count.
    std::vector<PirPartialResponse> partials(n);
    std::vector<bool> seen(n, false);
    u64 gather_bytes = 0;
    for (const auto &blob : partial_blobs) {
        PirPartialResponse p = deserializePartialResponse(ctx_, blob);
        if (p.numShards != n)
            throw SerializeError(strprintf(
                "partial claims %u shards, deployment has %u",
                p.numShards, n));
        if (p.planes.size() != static_cast<u64>(params_.planes))
            throw SerializeError(strprintf(
                "partial from shard %u has %zu planes, params say %d",
                p.shard, p.planes.size(), params_.planes));
        u32 idx = p.shard;
        if (seen[idx])
            throw SerializeError(
                strprintf("duplicate partial for shard %u", idx));
        seen[idx] = true;
        gather_bytes += blob.size();
        partials[idx] = std::move(p);
    }
    gatherBytes_.add(gather_bytes);

    PirResponse resp;
    if (n == 1) {
        // Degenerate deployment: the single partial is already the
        // complete answer; re-frame it as a Response blob.
        resp.planes = std::move(partials[0].planes);
    } else {
        // Final log2(n) tournament levels: the same folds, on the same
        // operands, in the same order as the tail of the monolithic
        // ColTor, so the result is byte-identical to it.
        const PirServer &srv = *foldServer_;
        int sel_offset = params_.d - log2Exact(n);
        // Only the final levels' selectors are needed here; their
        // assembly overlaps the expansion's last level.
        std::vector<RgswCiphertext> selectors;
        std::vector<BfvCiphertext> leaves =
            srv.expandAndSelect(query, sel_offset, params_.d,
                                selectors);

        // planes (1-2) never fills the pool; run the loop serially so
        // each colTor's internal parallelism engages instead.
        resp.planes.resize(params_.planes);
        for (u64 pl = 0; pl < static_cast<u64>(params_.planes); ++pl) {
            std::vector<BfvCiphertext> entries(n);
            for (u32 s = 0; s < n; ++s)
                entries[s] = partials[s].planes[pl];
            resp.planes[pl] =
                srv.colTor(std::move(entries), selectors, sel_offset);
        }
    }
    queries_.add(1);
    return serializeResponse(ctx_, resp);
}

ShardCountersSummary
ShardCoordinator::summary() const
{
    ShardCountersSummary s;
    s.numShards = numShards();
    s.numReplicas = fo_.replicas;
    s.queries = queries_.value();
    for (const auto &engine : engines_)
        s.shardOps += engine->opCounters();
    if (foldServer_)
        s.foldOps = foldServer_->counters().snapshot();
    s.broadcastBytes = broadcastBytes_.value();
    s.gatherBytes = gatherBytes_.value();
    s.retries = retries_.value();
    s.failovers = failovers_.value();
    s.deadlineMisses = deadlineMisses_.value();
    return s;
}

} // namespace ive
