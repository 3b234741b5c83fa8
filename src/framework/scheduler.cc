/**
 * @file
 * Static scheduler implementation.
 */

#include "framework/scheduler.hh"

namespace omega {

StaticScheduler::StaticScheduler(std::uint64_t total, unsigned num_cores,
                                 unsigned chunk)
    : total_(total), chunk_(chunk),
      hop_(static_cast<std::uint64_t>(num_cores - 1) * chunk),
      cursor_(num_cores), remaining_(total)
{
    omega_assert(num_cores > 0 && chunk_ > 0, "bad scheduler parameters");
    // Core c starts at the beginning of chunk c.
    for (unsigned c = 0; c < num_cores; ++c)
        cursor_[c] = {static_cast<std::uint64_t>(c) * chunk_, chunk_};
}

} // namespace omega
