/**
 * @file
 * Live waiting-window dispatcher: the one batch executor of the
 * serving stack.
 *
 * This is the system/batch_scheduler policy (paper SV, Fig. 14b) moved
 * from discrete-event simulation onto a real thread: a waiting window
 * opens when the first query of a batch arrives, and the batch is
 * dispatched when the window expires or maxBatch queries have queued,
 * whichever comes first. While a batch runs the next window
 * effectively closes at completion time, exactly like the simulator's
 * max(window_close, server_free). The same SchedulerConfig drives
 * both, so simulated load curves and live behavior stay comparable.
 *
 * Every query carries its own work thunk, AnswerFn, which computes its
 * response at dispatch time: the TCP front-end (src/net/) binds the
 * client's registered engine, and a sharded deployment passes
 * [&](auto &b) { return coord.answer(b); }. A batch runs its thunks on
 * the dispatch thread one at a time, each inside its own error
 * boundary, so one bad query never fails its batch-mates.
 *
 * Admission control (SchedulerConfig knobs, README "Robustness"):
 *
 *   maxQueue         bounded queue with a high-water mark — a submit
 *                    arriving at the mark is shed immediately with a
 *                    typed ive::Overloaded instead of growing the
 *                    queue without bound (load spikes degrade to
 *                    rejections, not OOM).
 *   queryDeadlineSec per-query deadline inherited through the waiting
 *                    window: a query whose deadline passes while it
 *                    waits is dropped with ive::DeadlineExceeded at
 *                    dispatch time rather than served uselessly late.
 *
 * submit() is thread-safe and NEVER throws for serving-state reasons:
 * overload, deadline expiry and shutdown all surface as a typed
 * ive::Error through the query's completion (Overloaded,
 * DeadlineExceeded, ShutdownError), so every submit observes exactly
 * one outcome and a submit racing shutdown can neither hang nor see a
 * broken promise. Thunk errors (e.g. SerializeError for a malformed
 * blob, ShardUnavailable from a dead slice) arrive the same way.
 *
 * submit(blob, work, done) delivers through done(response, error),
 * which fires exactly once: on the dispatch thread for accepted work,
 * on the submitting thread for immediate rejections, always outside
 * the dispatcher lock (re-submitting from a callback is safe).
 * Callbacks must not block — the epoll front-end relies on that.
 * submit(blob, work) wraps the same path in a future, for tests and
 * batch drivers that can afford to block on get().
 */

#ifndef IVE_SHARD_DISPATCHER_HH
#define IVE_SHARD_DISPATCHER_HH

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "common/annotations.hh"
#include "common/types.hh"
#include "obs/metrics.hh"
#include "shard/scheduler_config.hh"

namespace ive {

/** Cumulative dispatcher tallies, a copy of the dispatcher's counters
 *  taken under the queue lock. */
struct DispatcherStats
{
    u64 submitted = 0;  ///< Accepted into the queue.
    u64 completed = 0;  ///< Outcomes delivered, success or error.
    u64 batches = 0;
    u64 fullBatches = 0; ///< Dispatched because maxBatch was reached.
    u64 maxBatch = 0;    ///< Largest batch dispatched so far.
    u64 shed = 0;        ///< Rejected with Overloaded at submit.
    u64 expired = 0;     ///< Dropped with DeadlineExceeded at dispatch.
    u64 rejectedShutdown = 0; ///< Rejected with ShutdownError.
};

class ShardDispatcher
{
  public:
    /** Computes one query's response blob (throws a typed ive::Error
     *  on failure); runs on the dispatch thread. */
    using AnswerFn =
        std::function<std::vector<u8>(const std::vector<u8> &)>;
    /** Exactly-once result delivery: response on success, non-null
     *  exception_ptr (a typed ive::Error) on failure. */
    using CompletionFn =
        std::function<void(std::vector<u8> response,
                           std::exception_ptr error)>;

    /** Starts the dispatch thread. */
    explicit ShardDispatcher(const SchedulerConfig &cfg);

    /** Flushes the queue, then joins the dispatch thread. */
    ~ShardDispatcher();

    /**
     * Stops accepting work, flushes already-queued queries, and joins
     * the dispatch thread. Idempotent and safe to race with submit():
     * a submit that loses the race is rejected with ShutdownError, one
     * that wins is flushed — either way its future resolves. The
     * destructor calls this if it has not been called already.
     */
    void shutdown() IVE_EXCLUDES(mu_);

    ShardDispatcher(const ShardDispatcher &) = delete;
    ShardDispatcher &operator=(const ShardDispatcher &) = delete;

    /**
     * Enqueues one query blob; at dispatch time work(blob) computes its
     * response, delivered through done(response, error) exactly once
     * (see the file comment for which thread runs it).
     */
    void submit(std::vector<u8> query_blob, AnswerFn work,
                CompletionFn done) IVE_EXCLUDES(mu_);

    /**
     * Future flavor of the same path: yields work(blob)'s response, or
     * a typed ive::Error (Overloaded when the queue is at its
     * high-water mark, DeadlineExceeded when the waiting window
     * consumed the query's deadline, ShutdownError when the dispatcher
     * is stopping, or the thunk's own failure).
     */
    std::future<std::vector<u8>> submit(std::vector<u8> query_blob,
                                        AnswerFn work) IVE_EXCLUDES(mu_);

    /** Blocks until every submitted query has been dispatched. */
    void drain() IVE_EXCLUDES(mu_);

    DispatcherStats stats() const IVE_EXCLUDES(mu_);

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        Clock::time_point arrival;
        u64 arrivalNs = 0;  ///< obs::nowNs() at submit, for telemetry.
        u64 deadlineNs = 0; ///< arrivalNs + queryDeadlineSec; 0 = none.
        std::vector<u8> blob;
        AnswerFn work;
        CompletionFn done;
    };

    /** Admission control + queue insert; delivers rejections outside
     *  the lock. */
    void enqueue(Pending p) IVE_EXCLUDES(mu_);
    void runLoop() IVE_EXCLUDES(mu_);

    SchedulerConfig cfg_;

    mutable Mutex mu_;
    CondVar wake_; ///< Queue grew or stop requested.
    CondVar idle_; ///< Queue drained, nothing in flight.
    std::deque<Pending> queue_ IVE_GUARDED_BY(mu_);
    // Tallies with a process series are counters linked to it
    // (obs/metrics.hh); all are written under mu_ so stats() copies a
    // consistent set.
    obs::Counter submitted_;
    obs::Counter completed_;
    obs::Counter batches_;
    obs::Counter shed_;
    obs::Counter expired_;
    obs::Gauge queueDepth_;
    u64 fullBatches_ IVE_GUARDED_BY(mu_) = 0;
    u64 maxBatch_ IVE_GUARDED_BY(mu_) = 0;
    u64 rejectedShutdown_ IVE_GUARDED_BY(mu_) = 0;
    bool inFlight_ IVE_GUARDED_BY(mu_) = false;
    bool stop_ IVE_GUARDED_BY(mu_) = false;
    std::once_flag shutdownOnce_; ///< One joiner, even when racing.
    std::thread worker_;
};

} // namespace ive

#endif // IVE_SHARD_DISPATCHER_HH
