/**
 * @file
 * Source-vertex buffer (paper section V.C).
 *
 * A small per-core read-only buffer holding copies of recently read REMOTE
 * scratchpad entries. Many edgeMap phases re-read the source vertex's
 * vtxProp once per outgoing edge; the first read pays the remote
 * scratchpad round trip and fills the buffer, subsequent reads hit
 * locally. All entries are invalidated at the end of every algorithm
 * iteration, and source vtxProps are not written within an iteration, so
 * no coherence with the scratchpads is needed.
 */

#ifndef OMEGA_OMEGA_SOURCE_VERTEX_BUFFER_HH
#define OMEGA_OMEGA_SOURCE_VERTEX_BUFFER_HH

#include <cstdint>
#include <vector>

#include "graph/types.hh"
#include "sim/field_visitor.hh"

namespace omega {

/** Fully-associative LRU buffer of (vertex, prop) entries. */
class SourceVertexBuffer
{
  public:
    /** @param entries capacity; 0 disables the buffer entirely. */
    explicit SourceVertexBuffer(unsigned entries);

    /**
     * Look up (vertex, prop); on miss the entry is installed (LRU victim
     * replaced).
     *
     * @return true on hit.
     */
    bool lookupAndFill(VertexId vertex, std::uint32_t prop);

    /** Probe without filling. */
    bool contains(VertexId vertex, std::uint32_t prop) const;

    /** End-of-iteration invalidation. */
    void invalidateAll();

    /** Drop one (vertex, prop) entry (ECC recovery re-fetch). */
    void invalidate(VertexId vertex, std::uint32_t prop);

    unsigned capacity() const
    {
        return static_cast<unsigned>(slots_.size());
    }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** End-of-iteration invalidation sweeps performed. */
    std::uint64_t invalidationEpochs() const { return invalidations_; }

    /**
     * Capacity (config), all slots (valid/vertex/prop/lru), the LRU
     * clock and the counters.
     */
    void visit(FieldVisitor &v);

  private:
    struct Slot
    {
        bool valid = false;
        VertexId vertex = 0;
        std::uint32_t prop = 0;
        std::uint64_t lru = 0;
    };

    std::vector<Slot> slots_;
    std::uint64_t lru_clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace omega

#endif // OMEGA_OMEGA_SOURCE_VERTEX_BUFFER_HH
