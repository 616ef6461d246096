/**
 * @file
 * Request queue + dynamic batcher for the serving engine.
 *
 * Clients submit single-image requests; a batcher thread pops them as
 * shape-pure FIFO batches: it takes the longest same-shape prefix of
 * the queue, up to a size threshold. The deadline, anchored at the
 * head request's arrival, is an upper bound on a partial batch's wait,
 * waited only while waiting gathers requests: a deadline that gathers
 * no one stops the waits, and the next pop of two or more requests
 * (latecomers that queued while the worker was busy) resumes them, so
 * a lone caller waits out one deadline, not one per request. The
 * queue is bounded — a full queue blocks producers (backpressure)
 * instead of dropping requests — and close() lets the consumer drain
 * every in-flight request before shutdown.
 */

#ifndef WINOMC_SERVE_BATCHER_HH
#define WINOMC_SERVE_BATCHER_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "tensor/tensor.hh"

namespace winomc::serve {

/** One in-flight inference request (a single image, N = 1). */
struct Request
{
    Tensor x;                  ///< input image [1, C, H, W]
    std::promise<Tensor> done; ///< fulfilled with the output [1, K, H, W]
    std::chrono::steady_clock::time_point enqueued;
    /** Trace id minted by Engine::submit (0 = untracked). Propagated
     *  through the queue to the dispatched batch, where it names the
     *  request's "serve.request" span and the latency histogram's
     *  exemplar — the correlation key of the telemetry plane. */
    std::uint64_t id = 0;
};

/**
 * Bounded MPMC queue of requests with shape-pure batch pops.
 *
 * Thread-safety: any number of pushers and poppers. The serving
 * engine runs one popper (the batcher thread); tests hammer it with
 * several of each.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity);

    /**
     * Enqueue a request, blocking while the queue is full
     * (backpressure — nothing is ever dropped). Returns false when the
     * queue is closed, leaving `r` (and its promise) with the caller.
     */
    bool push(Request &&r);

    /**
     * Pop the next batch: blocks for a head request (or close), then
     * gathers the same-shape (C, H, W) FIFO prefix up to `maxBatch`
     * requests. While waiting pays, a partial batch waits for
     * latecomers until `head.enqueued + maxDelay`; a deadline that
     * gathers no one stops the waiting, and a pop of two or more
     * resumes it (a fresh queue waits). After close() the remaining
     * requests drain batch by batch; an empty result means
     * closed-and-drained (the consumer's exit signal).
     */
    std::vector<Request> popBatch(int maxBatch,
                                  std::chrono::microseconds maxDelay);

    /** Reject future pushes and wake every waiter. Idempotent. */
    void close();

    /** Requests currently queued (racy by nature; for gauges). */
    std::size_t depth() const;

    bool closed() const;

  private:
    const std::size_t cap;
    mutable std::mutex mu;
    std::condition_variable canPush;
    std::condition_variable canPop;
    std::deque<Request> q;
    bool shut = false;
    /** Has waiting for latecomers paid lately? Set by a pop of two or
     *  more, cleared by a deadline that gathers no one. */
    bool waitPays = true;
};

} // namespace winomc::serve

#endif // WINOMC_SERVE_BATCHER_HH
