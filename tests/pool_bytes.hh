/**
 * @file
 * Workspace byte counts for allocation tests: what the live tensors,
 * tiles and weights hold in the pooled ws::Workspace.
 */

#ifndef WINOMC_TESTS_POOL_BYTES_HH
#define WINOMC_TESTS_POOL_BYTES_HH

#include <cstdint>

#include "tensor/workspace.hh"

namespace winomc::test {

/** Workspace bytes in use: what the live tensors and tiles hold. */
inline std::int64_t
pooledInUse()
{
    return std::int64_t(ws::Workspace::global().stats().bytesInUse);
}

/** Workspace bytes a live T(args...) holds. */
template <class T, class... Args>
std::int64_t
bytesOf(Args... args)
{
    const std::int64_t before = pooledInUse();
    const T t(args...);
    return pooledInUse() - before;
}

} // namespace winomc::test

#endif // WINOMC_TESTS_POOL_BYTES_HH
