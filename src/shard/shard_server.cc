#include "shard/shard_server.hh"

#include <chrono>
#include <thread>

#include "common/error.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"

namespace ive {

namespace {

/** Default cap on an injected hang: a hang that outlives its test
 *  must release on its own so watchdog joins stay bounded. */
constexpr u64 kHangCapMs = 2000;

/**
 * The shard.answer.* failpoints, scoped by shard index so a recipe can
 * fail exactly one slice of a broadcast (at=N in the spec). They sit
 * in front of the slice pipeline: an injected fault costs no compute.
 */
void
maybeInjectShardFault(u32 shard)
{
    static fail::Failpoint &delay = fail::point("shard.answer.delay");
    static fail::Failpoint &error = fail::point("shard.answer.error");
    static fail::Failpoint &hang = fail::point("shard.answer.hang");

    if (fail::Hit h = delay.evaluate(shard))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(h.arg ? h.arg : 10));
    if (fail::Hit h = hang.evaluate(shard))
        hang.blockWhileArmed(h.arg ? h.arg : kHangCapMs);
    if (error.evaluate(shard))
        throw Error(strprintf(
            "injected fault: shard.answer.error (shard %u)", shard));
}

} // namespace

ShardServer::ShardServer(std::span<const u8> params_blob, u32 shard,
                         u32 num_shards)
    : session_(params_blob, shard, num_shards)
{
}

ShardServer::ShardServer(const PirParams &params, u32 shard,
                         u32 num_shards)
    : session_(params, shard, num_shards)
{
}

void
ShardServer::ingestKeys(std::span<const u8> key_blob)
{
    session_.ingestKeys(key_blob);
}

std::vector<u8>
ShardServer::answerPartial(std::span<const u8> query_blob)
{
    maybeInjectShardFault(shard());
    return session_.answerPartial(query_blob);
}

ServerCountersSnapshot
ShardServer::opCounters() const
{
    return session_.counters().snapshot();
}

ShardTraffic
ShardServer::traffic() const
{
    const SessionCounters &t = session_.traffic();
    return {t.queries.value(), t.requestBytes.value(),
            t.responseBytes.value()};
}

} // namespace ive
