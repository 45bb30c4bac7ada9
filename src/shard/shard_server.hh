/**
 * @file
 * One shard of a record-sliced PIR deployment (paper SV).
 *
 * A ShardServer wraps the ServerSession for its record slice behind the
 * same bytes-only boundary a remote process would present: queries come
 * in as wire blobs, PartialResponse blobs go out, and the session's
 * traffic counters (queries, request/response bytes) and pipeline op
 * counters are the shard's tallies. The ShardCoordinator
 * (shard/coordinator.hh) owns one ShardServer per slice and finishes
 * the tournament fold over their partials.
 */

#ifndef IVE_SHARD_SHARD_SERVER_HH
#define IVE_SHARD_SHARD_SERVER_HH

#include "pir/session.hh"

namespace ive {

/** Cumulative wire-traffic tallies one shard has served. */
struct ShardTraffic
{
    u64 queries = 0;
    u64 requestBytes = 0;
    u64 responseBytes = 0;
};

class ShardServer
{
  public:
    ShardServer(std::span<const u8> params_blob, u32 shard,
                u32 num_shards);
    ShardServer(const PirParams &params, u32 shard, u32 num_shards);

    u32 shard() const { return session_.shard(); }
    u32 numShards() const { return session_.numShards(); }
    const PirParams &params() const { return session_.params(); }

    /** The shard's record slice; fill before answering queries. */
    Database &database() { return session_.database(); }

    /** Ingests a client's public-key blob (once per client). */
    void ingestKeys(std::span<const u8> key_blob);

    /**
     * Answers one query blob with this shard's PartialResponse blob
     * (slice-local RowSel + ColTor partial, every plane).
     */
    std::vector<u8> answerPartial(std::span<const u8> query_blob);

    /** Pipeline op totals of the slice's server (keys required). */
    ServerCountersSnapshot opCounters() const;

    /** Wire-traffic totals over the shard's lifetime. */
    ShardTraffic traffic() const;

  private:
    ServerSession session_;
};

} // namespace ive

#endif // IVE_SHARD_SHARD_SERVER_HH
