/**
 * @file
 * Bytes-only PIR sessions: the complete protocol over opaque blobs.
 *
 * ClientSession and ServerSession wrap the in-process client/server
 * pipeline behind the wire format (pir/wire.hh), so the two sides
 * exchange nothing but std::vector<u8> — the shape a socket, RPC
 * framework, or shard router would move. The flow:
 *
 *   client: paramsBlob() ----------------> ServerSession(params_blob)
 *   client: keyBlob() (once) ------------> ingestKeys(key_blob)
 *   client: queryBlob(index) ------------> answer(query_blob)
 *   client: decodeResponse(resp_blob) <--- (all planes of the record)
 *
 * Every answer — ServerSession::answer(), answerPartial() and the TCP
 * front-end's per-client QueryRef thunk (net/server.cc) — runs the one
 * routine answerQueryBlob(); since every pipeline stage and the
 * serializer are deterministic, response blobs are byte-identical at
 * any thread count.
 */

#ifndef IVE_PIR_SESSION_HH
#define IVE_PIR_SESSION_HH

#include <memory>

#include "pir/server.hh"
#include "pir/wire.hh"

namespace ive {

/**
 * Deserializes a public-key blob and validates it against the params'
 * expansion schedule: a structurally valid blob from mismatched params
 * must throw SerializeError here, not abort inside PirServer. Shared
 * by ServerSession::ingestKeys and the shard coordinator's fold engine.
 */
PirPublicKeys deserializeCompatibleKeys(const HeContext &ctx,
                                        const PirParams &params,
                                        std::span<const u8> key_blob);

/** A shard's place in its deployment; tags PartialResponse blobs. */
struct ShardSlot
{
    u32 shard = 0;
    u32 numShards = 1;
};

/**
 * Bytes-only session traffic of one serving object (a ServerSession,
 * a TCP front-end): queries answered and request/response blob bytes.
 * Each is an instance counter linked to its process series
 * (ive_session_*_total), so one add() updates both.
 */
struct SessionCounters
{
    SessionCounters();

    obs::Counter queries;       ///< Answers produced.
    obs::Counter requestBytes;  ///< Query blob bytes received.
    obs::Counter responseBytes; ///< Response blob bytes produced.
};

/**
 * The one answer routine of the bytes-only boundary: deserializes the
 * query blob, runs server.processAllPlanes() and serializes the planes
 * — as a Response blob when `partial` is null, else as that slot's
 * PartialResponse blob. Adds the request, response and answer to
 * `traffic`, records the answer/serialize stage latencies and claims
 * a query trace around the whole call. Throws SerializeError for a
 * malformed blob (its request bytes are still counted).
 */
std::vector<u8> answerQueryBlob(const HeContext &ctx,
                                const PirServer &server,
                                std::span<const u8> query_blob,
                                SessionCounters &traffic,
                                const ShardSlot *partial = nullptr);

class ClientSession
{
  public:
    ClientSession(const PirParams &params, u64 seed);

    const PirParams &params() const { return params_; }
    const HeContext &context() const { return ctx_; }

    /** Parameter blob the server must be constructed from. */
    std::vector<u8> paramsBlob() const;

    /** Public-key blob, uploaded to the server once per client. */
    std::vector<u8> keyBlob() const;

    /** Query blob for one database entry index. */
    std::vector<u8> queryBlob(u64 entry_index);

    /**
     * Decodes a response blob into the record's mod-P coefficients,
     * one vector per plane.
     */
    std::vector<std::vector<u64>>
    decodeResponse(std::span<const u8> response_blob) const;

  private:
    PirParams params_;
    HeContext ctx_;
    PirClient client_;
    std::vector<u8> keyBlob_;
};

class ServerSession
{
  public:
    /** Builds the server-side context from a client's params blob. */
    explicit ServerSession(std::span<const u8> params_blob);
    explicit ServerSession(const PirParams &params);

    /**
     * Builds a shard session holding record slice `shard` of
     * `num_shards` (power of two, at most 2^d so every shard covers
     * whole ColTor columns). answer() is unavailable on a shard with
     * num_shards > 1; use answerPartial() and let the coordinator
     * finish the fold (shard/coordinator.hh).
     */
    ServerSession(std::span<const u8> params_blob, u32 shard,
                  u32 num_shards);
    ServerSession(const PirParams &params, u32 shard, u32 num_shards);

    const PirParams &params() const { return params_; }
    const HeContext &context() const { return ctx_; }

    u32 shard() const { return shard_; }
    u32 numShards() const { return numShards_; }

    /** The (plaintext) database; fill before answering queries. */
    Database &database() { return db_; }

    /** Ingests a client's public-key blob; answer() works after this. */
    void ingestKeys(std::span<const u8> key_blob);

    /** Answers one query blob with all planes of the record. */
    std::vector<u8> answer(std::span<const u8> query_blob) const;

    /**
     * Answers one query blob with this shard's PartialResponse blob:
     * the slice-local RowSel + ColTor partial per plane, for the
     * coordinator's final tournament fold.
     */
    std::vector<u8> answerPartial(std::span<const u8> query_blob) const;

    /** Pipeline op counters of the underlying server (keys required). */
    const ServerCounters &counters() const;

    /** Wire traffic answered over the session's lifetime. */
    const SessionCounters &traffic() const { return traffic_; }

  private:
    const PirServer &server() const;
    void requireFullDatabase() const;

    PirParams params_;
    HeContext ctx_;
    u32 shard_ = 0;
    u32 numShards_ = 1;
    Database db_;
    /**
     * Write-once state: set by ingestKeys() before any concurrent
     * answer*() call starts (the documented session handshake), then
     * only read. Deliberately not IVE_GUARDED_BY — a capability here
     * would put a lock on the read-only serving hot path; the
     * handshake order is what TSan's session suites pin down.
     */
    std::unique_ptr<PirServer> server_;
    mutable SessionCounters traffic_;
};

} // namespace ive

#endif // IVE_PIR_SESSION_HH
