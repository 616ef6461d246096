#include "tensor/workspace.hh"

#include <algorithm>
#include <cstdlib>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace winomc::ws {

namespace {

constexpr std::size_t kMinClassFloats = 256;

/** Slab capacity of a size class, in floats. */
std::size_t
classFloats(int cls)
{
    return kMinClassFloats << cls;
}

/** Smallest size class whose slabs hold at least n floats. */
int
classCeil(std::size_t n)
{
    int cls = 0;
    while (classFloats(cls) < n)
        ++cls;
    return cls;
}

/** Largest size class whose slabs fit inside a capacity of n floats. */
int
classFloor(std::size_t capacity)
{
    int cls = classCeil(capacity);
    if (classFloats(cls) > capacity && cls > 0)
        --cls;
    return std::min(cls, Workspace::kClasses - 1);
}

} // namespace

std::size_t
parseWorkspaceLimitMb(const char *str)
{
    return std::size_t(env::parsePositiveInt(
        "WINOMC_WORKSPACE_LIMIT_MB workspace limit", str,
        (long long)kMaxLimitMb));
}

Workspace &
Workspace::global()
{
    // Leaked singleton: tensors released during static destruction must
    // still find a live pool (same lifetime policy as the metrics
    // registry).
    static Workspace *g = new Workspace();
    return *g;
}

std::vector<float>
Workspace::acquire(std::size_t n)
{
    if (n == 0)
        return {};
    const int cls = classCeil(n);
    winomc_assert(cls < kClasses, "workspace request of ", n,
                  " floats exceeds the largest size class");
    std::vector<float> slab;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!pool[cls].empty()) {
            slab = std::move(pool[cls].back());
            pool[cls].pop_back();
            st.pooledBytes -= slab.capacity() * sizeof(float);
            ++st.reuses;
        } else {
            ++st.freshAllocs;
            st.freshBytes += classFloats(cls) * sizeof(float);
        }
    }
    if (slab.capacity() < classFloats(cls))
        slab.reserve(classFloats(cls)); // fresh slab: one heap alloc
    slab.assign(n, 0.0f);               // capacity suffices: no alloc
    {
        std::lock_guard<std::mutex> lock(mu);
        st.bytesInUse += slab.capacity() * sizeof(float);
        st.highWater = std::max(st.highWater, st.bytesInUse);
        publishGauges();
    }
    return slab;
}

void
Workspace::release(std::vector<float> &&buf)
{
    if (buf.capacity() == 0)
        return;
    std::vector<float> doomed; // freed outside the lock
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!poolLocked(buf)) {
            ++st.releases;
            ++st.dropped;
            st.bytesInUse -=
                std::min(st.bytesInUse, buf.capacity() * sizeof(float));
            doomed = std::move(buf);
        }
        publishGauges();
    }
}

bool
Workspace::offer(std::vector<float> &buf)
{
    if (buf.capacity() == 0)
        return true;
    std::lock_guard<std::mutex> lock(mu);
    const bool pooled = poolLocked(buf);
    publishGauges();
    return pooled;
}

bool
Workspace::poolLocked(std::vector<float> &buf)
{
    const std::size_t capBytes = buf.capacity() * sizeof(float);
    if (st.pooledBytes + capBytes > limitBytesLocked())
        return false;
    ++st.releases;
    st.bytesInUse -= std::min(st.bytesInUse, capBytes);
    buf.clear(); // keeps capacity
    st.pooledBytes += capBytes;
    pool[classFloor(buf.capacity())].push_back(std::move(buf));
    return true;
}

Stats
Workspace::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

void
Workspace::resetStats()
{
    std::lock_guard<std::mutex> lock(mu);
    const std::size_t in_use = st.bytesInUse;
    const std::size_t pooled = st.pooledBytes;
    st = Stats{};
    st.bytesInUse = in_use;
    st.pooledBytes = pooled;
    st.highWater = in_use;
}

void
Workspace::trim()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &cls : pool)
        cls.clear();
    st.pooledBytes = 0;
    publishGauges();
}

std::size_t
Workspace::limitBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return const_cast<Workspace *>(this)->limitBytesLocked();
}

void
Workspace::setLimitBytes(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu);
    limitB = bytes ? bytes : 1; // 0 is "unset": keep a live sentinel
}

std::size_t
Workspace::limitBytesLocked()
{
    if (limitB == 0) {
        std::size_t mb = parseWorkspaceLimitMb(
            std::getenv("WINOMC_WORKSPACE_LIMIT_MB"));
        if (mb == 0)
            mb = kDefaultLimitMb;
        limitB = mb << 20;
    }
    return limitB;
}

void
Workspace::publishGauges() const
{
    if (!metrics::enabled())
        return;
    metrics::gaugeSet("workspace.bytes_in_use", double(st.bytesInUse));
    metrics::gaugeSet("workspace.high_water_bytes", double(st.highWater));
    metrics::gaugeSet("workspace.pooled_bytes", double(st.pooledBytes));
    metrics::gaugeSet("workspace.fresh_allocs", double(st.freshAllocs));
    metrics::gaugeSet("workspace.fresh_bytes", double(st.freshBytes));
    metrics::gaugeSet("workspace.slab_reuses", double(st.reuses));
}

void
checkBudget(std::size_t bytes, const std::string &what)
{
    const std::size_t limit = Workspace::global().limitBytes();
    if (bytes > limit) {
        winomc_fatal(what, " needs ", bytes,
                     " bytes of workspace, over the ", limit >> 20,
                     " MB budget; raise WINOMC_WORKSPACE_LIMIT_MB or "
                     "shrink the shape");
    }
}

} // namespace winomc::ws
