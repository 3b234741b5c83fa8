/**
 * @file
 * Scratchpad model implementation.
 */

#include "omega/scratchpad.hh"

#include "util/logging.hh"

namespace omega {

Scratchpad::Scratchpad(std::uint64_t capacity_bytes, Cycles latency)
    : capacity_(capacity_bytes), latency_(latency)
{
}

VertexId
Scratchpad::setLineBytes(std::uint32_t line_bytes)
{
    omega_assert(line_bytes > 0, "scratchpad line size must be positive");
    line_bytes_ = line_bytes;
    num_lines_ = static_cast<VertexId>(capacity_ / line_bytes_);
    return num_lines_;
}

void
Scratchpad::visit(FieldVisitor &v)
{
    v.config("scratchpad line bytes", line_bytes_);
    v.counter("reads", reads_, "scratchpad reads");
    v.counter("writes", writes_, "scratchpad writes");
    v.counter("atomics", atomics_, "in-situ atomics");
    v.counter("bytes_read", bytes_read_, "bytes read");
    v.counter("bytes_written", bytes_written_, "bytes written");
}

} // namespace omega
