/**
 * @file
 * Per-core scratchpad storage model (paper section V.A).
 *
 * Each scratchpad is direct-mapped storage whose lines hold ALL vtxProp
 * entries of one vertex plus the dense-active-list bit, so a PISC atomic
 * retrieves everything it needs with a single access. The scratchpad
 * models geometry, occupancy and access counts; functional vertex data
 * lives in the framework's property arrays (the scratchpad is a timing
 * model, not a second copy of the data).
 */

#ifndef OMEGA_OMEGA_SCRATCHPAD_HH
#define OMEGA_OMEGA_SCRATCHPAD_HH

#include <cstdint>

#include "graph/types.hh"
#include "sim/field_visitor.hh"
#include "sim/params.hh"
#include "util/check.hh"

namespace omega {

/** One core's scratchpad: geometry plus access accounting. */
class Scratchpad
{
  public:
    /**
     * @param capacity_bytes storage capacity of this scratchpad.
     * @param latency access latency in cycles.
     */
    Scratchpad(std::uint64_t capacity_bytes, Cycles latency);

    /**
     * Set the per-vertex line size for the current run (sum of the
     * registered vtxProp entry sizes, plus the active bit rounded into
     * a byte). Returns the number of vertex lines that fit.
     */
    VertexId setLineBytes(std::uint32_t line_bytes);

    Cycles latency() const { return latency_; }
    std::uint64_t capacityBytes() const { return capacity_; }
    std::uint32_t lineBytes() const { return line_bytes_; }
    VertexId numLines() const { return num_lines_; }

    /** Record a read of @p bytes. */
    void recordRead(std::uint32_t bytes)
    {
        omega_check(bytes > 0 && bytes <= line_bytes_,
                    "scratchpad read larger than one vertex line");
        ++reads_;
        bytes_read_ += bytes;
    }
    /** Record a write of @p bytes. */
    void recordWrite(std::uint32_t bytes)
    {
        omega_check(bytes > 0 && bytes <= line_bytes_,
                    "scratchpad write larger than one vertex line");
        ++writes_;
        bytes_written_ += bytes;
    }
    /** Record an in-situ atomic (read + modify + write of a line). */
    void recordAtomic()
    {
        ++atomics_;
        bytes_read_ += line_bytes_;
        bytes_written_ += line_bytes_;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t atomics() const { return atomics_; }
    std::uint64_t bytesRead() const { return bytes_read_; }
    std::uint64_t bytesWritten() const { return bytes_written_; }

    /** Record total accesses (reads + writes + atomics). */
    std::uint64_t accesses() const { return reads_ + writes_ + atomics_; }

    /**
     * Access counters plus the run's line geometry (config: setLineBytes
     * is re-run by configure() before restore).
     */
    void visit(FieldVisitor &v);

  private:
    std::uint64_t capacity_;
    Cycles latency_;
    std::uint32_t line_bytes_ = 8;
    VertexId num_lines_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t atomics_ = 0;
    std::uint64_t bytes_read_ = 0;
    std::uint64_t bytes_written_ = 0;
};

} // namespace omega

#endif // OMEGA_OMEGA_SCRATCHPAD_HH
