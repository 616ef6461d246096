/**
 * @file
 * Arena-style workspace allocator with size-class slab reuse.
 *
 * Every tensor, tile, mask and kernel scratch buffer is a ws::Slab,
 * acquired from (and released back to) this pool: Tensor, the fp32 and
 * 16-bit Winograd tiles, WinoWeights, the activation zero masks and the
 * per-thread kernel scratches. So in steady state — fixed shapes, as in
 * a training loop — the numeric substrate performs zero heap
 * allocations: a released slab is handed straight back to the next
 * acquire of the same size class. This is the host-side analogue of the
 * paper's planned SRAM working set: allocation becomes a plan-time
 * event, not a per-batch one.
 *
 * Design points:
 *
 *  - Size classes are powers of two (min 256 floats). acquire(n) takes
 *    a slab from the smallest class holding n; release returns the slab
 *    to the class its capacity fits. Slabs keep their capacity across
 *    the pool, so a reuse never touches the heap.
 *  - The pool retains at most limitBytes() (WINOMC_WORKSPACE_LIMIT_MB,
 *    default 1024 MB); slabs released beyond that are freed to the OS.
 *    checkBudget() lets execution plans fail loudly — not OOM — when a
 *    planned working set alone would exceed the budget.
 *  - Counters distinguish fresh heap allocations (pool misses) from
 *    slab reuses; tests pin the hot path to zero fresh allocations
 *    after a one-step warm-up. Gauges (bytes in use, high water,
 *    pooled bytes) are mirrored into common/metrics under "workspace.*"
 *    and surface in winomc-report.
 *  - All operations are mutex-guarded; acquire/release happen at buffer
 *    granularity (never inside kernels' inner loops), so contention is
 *    negligible and the pool composes with common/parallel.hh workers.
 */

#ifndef WINOMC_TENSOR_WORKSPACE_HH
#define WINOMC_TENSOR_WORKSPACE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace winomc::ws {

/** Default retention/budget limit when the knob is unset. */
constexpr std::size_t kDefaultLimitMb = 1024;
/** Hard ceiling on the knob; larger requests clamp here. */
constexpr std::size_t kMaxLimitMb = std::size_t(1) << 20; // 1 TiB

/**
 * Parse a WINOMC_WORKSPACE_LIMIT_MB string; 0 if missing/invalid (the
 * caller then falls back to kDefaultLimitMb). Never crashes: garbage,
 * negative, and zero values warn and return 0; values above kMaxLimitMb
 * warn and clamp — the same contract as parseThreadCount.
 */
std::size_t parseWorkspaceLimitMb(const char *str);

/** Pool observability counters/gauges (bytes are heap bytes). */
struct Stats
{
    std::uint64_t freshAllocs = 0; ///< acquires that hit the heap
    std::uint64_t freshBytes = 0;  ///< bytes newly heap-allocated
    std::uint64_t reuses = 0;      ///< acquires served from the pool
    std::uint64_t releases = 0;
    std::uint64_t dropped = 0;     ///< slabs freed (pool at limit)
    std::size_t bytesInUse = 0;    ///< acquired minus released
    std::size_t highWater = 0;
    std::size_t pooledBytes = 0;   ///< retained in free lists
};

class Workspace
{
  public:
    /** The process-wide pool every Slab routes through. */
    static Workspace &global();

    Workspace() = default;
    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    /** A zero-filled slab of exactly n floats (capacity >= n). */
    std::vector<float> acquire(std::size_t n);

    /** Return a slab to the pool (or free it if the pool is full). */
    void release(std::vector<float> &&buf);
    /** Pool `buf` if the pool has room for it (leaving `buf` empty);
     *  else leave it with the caller. Returns whether it was pooled. */
    bool offer(std::vector<float> &buf);

    Stats stats() const;
    /** Zero the counters; bytesInUse/pooledBytes stay, highWater
     *  restarts from the current bytesInUse. */
    void resetStats();
    /** Free every pooled slab back to the OS. */
    void trim();

    std::size_t limitBytes() const;
    void setLimitBytes(std::size_t bytes);

    /** Number of power-of-two size classes (min class: 256 floats). */
    static constexpr int kClasses = 44;

  private:
    void publishGauges() const;      // callers hold mu
    bool poolLocked(std::vector<float> &buf); // offer(); callers hold mu
    std::size_t limitBytesLocked();  // callers hold mu

    mutable std::mutex mu;
    std::vector<std::vector<float>> pool[kClasses];
    Stats st;
    std::size_t limitB = 0; ///< 0 = uninitialized, read env lazily
};

/**
 * The one owner of pooled memory: n elements of a trivially copyable T
 * in a slab of the global Workspace.
 *
 *  - Acquires come from the pool and are zero-filled.
 *  - Copy assignment reuses the destination's capacity when it holds
 *    the source, so it allocates nothing then.
 *  - resize(n) zero-fills when n differs from size() and keeps the
 *    contents otherwise; assignZero(n) always zero-fills. Both reuse
 *    the capacity when it suffices.
 *  - Destruction returns the slab to the pool; a moved-from Slab is
 *    empty.
 *
 * The pool hands out float slabs. A T other than float starts its
 * elements' lifetime in that storage by value-initialising placement
 * new, so a fresh or resized Slab of any T reads as zeros.
 */
template <class T>
class Slab
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "Slab holds trivially copyable elements");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "the pool's slabs are only new-aligned");

  public:
    Slab() = default;
    explicit Slab(std::size_t n) { resize(n); }
    ~Slab() { Workspace::global().release(std::move(store)); }

    Slab(const Slab &o) { *this = o; }
    Slab &
    operator=(const Slab &o)
    {
        if (this != &o) {
            hold(o.n, false);
            if (o.n)
                std::memcpy(p, o.p, o.n * sizeof(T));
        }
        return *this;
    }
    Slab(Slab &&o) noexcept
        : store(std::move(o.store)), p(std::exchange(o.p, nullptr)),
          n(std::exchange(o.n, 0))
    {
    }
    Slab &
    operator=(Slab &&o) noexcept
    {
        Slab taken(std::move(o));
        std::swap(store, taken.store);
        std::swap(p, taken.p);
        std::swap(n, taken.n);
        return *this; // taken releases the old slab
    }

    void
    resize(std::size_t count)
    {
        if (count != n)
            hold(count, true);
    }
    void assignZero(std::size_t count) { hold(count, true); }
    /** Hand the slab back to the pool if it has room (leaving this
     *  Slab empty); else keep it. Returns whether it went back. */
    bool
    offer()
    {
        if (!Workspace::global().offer(store))
            return false;
        p = nullptr;
        n = 0;
        return true;
    }

    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
    T *data() { return p; }
    const T *data() const { return p; }
    T *begin() { return p; }
    T *end() { return p + n; }
    const T *begin() const { return p; }
    const T *end() const { return p + n; }
    T &operator[](std::size_t i) { return p[i]; }
    const T &operator[](std::size_t i) const { return p[i]; }

  private:
    /** Floats of pooled storage that hold `count` elements. */
    static std::size_t
    floatsFor(std::size_t count)
    {
        return (count * sizeof(T) + sizeof(float) - 1) / sizeof(float);
    }

    /**
     * Hold `count` elements, zeroed iff `zero`, reusing the store's
     * capacity when it suffices (else trading it for a pooled slab).
     */
    void
    hold(std::size_t count, bool zero)
    {
        const std::size_t nf = floatsFor(count);
        if (store.capacity() < nf) {
            Workspace::global().release(std::move(store));
            store = Workspace::global().acquire(nf);
        } else if (zero) {
            store.assign(nf, 0.0f);
        } else {
            store.resize(nf);
        }
        n = count;
        if constexpr (std::is_same_v<T, float>) {
            p = store.data();
        } else {
            void *raw = store.data();
            p = !count ? nullptr
                : zero ? ::new (raw) T[count]()
                       : ::new (raw) T[count];
        }
    }

    std::vector<float> store;
    T *p = nullptr;
    std::size_t n = 0; ///< elements living in store
};

/**
 * Fail loudly (winomc_fatal, not OOM) when a planned working set of
 * `bytes` exceeds the workspace budget. `what` names the plan in the
 * error message.
 */
void checkBudget(std::size_t bytes, const std::string &what);

} // namespace winomc::ws

#endif // WINOMC_TENSOR_WORKSPACE_HH
