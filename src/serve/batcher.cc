#include "serve/batcher.hh"

#include "common/logging.hh"

namespace winomc::serve {

RequestQueue::RequestQueue(std::size_t capacity) : cap(capacity)
{
    winomc_assert(capacity >= 1, "RequestQueue needs capacity >= 1");
}

bool
RequestQueue::push(Request &&r)
{
    {
        std::unique_lock<std::mutex> lock(mu);
        canPush.wait(lock,
                     [&] { return shut || q.size() < cap; });
        if (shut)
            return false;
        q.push_back(std::move(r));
    }
    canPop.notify_one();
    return true;
}

std::vector<Request>
RequestQueue::popBatch(int maxBatch, std::chrono::microseconds maxDelay)
{
    winomc_assert(maxBatch >= 1, "popBatch needs maxBatch >= 1");
    std::vector<Request> batch;
    std::unique_lock<std::mutex> lock(mu);
    canPop.wait(lock, [&] { return shut || !q.empty(); });
    if (q.empty())
        return batch; // closed and drained

    // The latency bound is anchored at the head request's arrival, so
    // a batch the worker was too busy to start on time goes out as
    // soon as the worker gets here.
    const auto deadline = q.front().enqueued + maxDelay;
    const int c = q.front().x.c();
    const int h = q.front().x.h();
    const int w = q.front().x.w();

    auto takePrefix = [&] {
        while (int(batch.size()) < maxBatch && !q.empty() &&
               q.front().x.c() == c && q.front().x.h() == h &&
               q.front().x.w() == w) {
            batch.push_back(std::move(q.front()));
            q.pop_front();
        }
    };
    takePrefix();
    while (int(batch.size()) < maxBatch && q.empty() && !shut) {
        if (canPop.wait_until(lock, deadline) ==
            std::cv_status::timeout)
            break; // deadline: emit the partial batch
        takePrefix();
    }
    // A differently-shaped head ends the batch immediately: holding a
    // shape-pure batch open behind it would reorder requests.
    lock.unlock();
    canPush.notify_all();
    return batch;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        shut = true;
    }
    canPush.notify_all();
    canPop.notify_all();
}

std::size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mu);
    return q.size();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu);
    return shut;
}

} // namespace winomc::serve
