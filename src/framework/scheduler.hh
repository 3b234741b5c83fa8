/**
 * @file
 * OpenMP-style static-chunk scheduler.
 *
 * Work items [0, total) are dealt to the logical cores in round-robin
 * chunks — `schedule(static, chunk)` — exactly the scheme whose chunk
 * size OMEGA's scratchpad mapping must match (paper section V.D, Fig 12).
 * The engine interleaves the per-core streams by picking the core with
 * the smallest local clock, which is what makes shared-resource
 * contention (L2 banks, DRAM channels, PISCs) come out right.
 */

#ifndef OMEGA_FRAMEWORK_SCHEDULER_HH
#define OMEGA_FRAMEWORK_SCHEDULER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "util/logging.hh"

namespace omega {

/** Per-core cursors over a statically chunked iteration space. */
class StaticScheduler
{
  public:
    /**
     * @param total number of work items.
     * @param num_cores logical cores.
     * @param chunk chunk size (items handed to a core at a time).
     */
    StaticScheduler(std::uint64_t total, unsigned num_cores,
                    unsigned chunk);

    /** Next item for @p core, or nullopt when its share is exhausted. */
    std::optional<std::uint64_t>
    next(unsigned core)
    {
        Cursor &cur = cursor_[core];
        const std::uint64_t pos = cur.pos;
        if (pos >= total_)
            return std::nullopt;
        // Advance within the chunk; hop over the other cores' chunks to
        // this core's next one when the current chunk runs out. Counting
        // the chunk down replaces a per-item 64-bit `pos % chunk`.
        const bool last = --cur.chunk_left == 0;
        cur.pos = pos + 1 + (last ? hop_ : 0);
        cur.chunk_left = last ? chunk_ : cur.chunk_left;
        --remaining_;
        return pos;
    }

    /** Peek without consuming. */
    std::optional<std::uint64_t>
    peek(unsigned core) const
    {
        const std::uint64_t pos = cursor_[core].pos;
        if (pos >= total_)
            return std::nullopt;
        return pos;
    }

    /** True once every core's share is exhausted. */
    bool done() const { return remaining_ == 0; }

    std::uint64_t remaining() const { return remaining_; }

  private:
    struct Cursor
    {
        /** Next item index (absolute item id). */
        std::uint64_t pos;
        /** Items left in the current chunk, counting pos; never 0. */
        unsigned chunk_left;
    };

    std::uint64_t total_;
    unsigned chunk_;
    /** Distance from a chunk's last item to the core's next chunk, less
     *  one: the other cores' chunks, (num_cores - 1) * chunk. */
    std::uint64_t hop_;
    std::vector<Cursor> cursor_;
    std::uint64_t remaining_;
};

} // namespace omega

#endif // OMEGA_FRAMEWORK_SCHEDULER_HH
