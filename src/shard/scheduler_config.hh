/**
 * @file
 * Waiting-window batching policy shared by the live ShardDispatcher
 * (shard/dispatcher.hh) and the discrete-event batch scheduler
 * (system/batch_scheduler.hh, paper SV and SVI-F, Fig. 14b).
 *
 * It lives below both so the serving libraries can name it without
 * linking the accelerator simulator.
 */

#ifndef IVE_SHARD_SCHEDULER_CONFIG_HH
#define IVE_SHARD_SCHEDULER_CONFIG_HH

namespace ive {

struct SchedulerConfig
{
    double windowSec = 0.032;
    int maxBatch = 64;

    // Admission control (live ShardDispatcher only; the discrete-event
    // simulator models an unbounded queue and ignores these).
    /**
     * Queue high-water mark: submits arriving while maxQueue queries
     * already wait are shed with a typed ive::Overloaded instead of
     * growing the queue without bound. 0 = unbounded (legacy).
     */
    int maxQueue = 0;
    /**
     * Per-query deadline in seconds, inherited through the waiting
     * window: a query whose deadline passes before its batch
     * dispatches is dropped with ive::DeadlineExceeded rather than
     * served late. 0 = no deadline.
     */
    double queryDeadlineSec = 0.0;
};

} // namespace ive

#endif // IVE_SHARD_SCHEDULER_CONFIG_HH
