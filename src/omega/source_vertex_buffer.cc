/**
 * @file
 * Source-vertex buffer implementation.
 */

#include "omega/source_vertex_buffer.hh"


namespace omega {

SourceVertexBuffer::SourceVertexBuffer(unsigned entries)
    : slots_(entries)
{
}

bool
SourceVertexBuffer::lookupAndFill(VertexId vertex, std::uint32_t prop)
{
    if (slots_.empty()) {
        ++misses_;
        return false;
    }
    Slot *victim = &slots_[0];
    for (auto &slot : slots_) {
        if (slot.valid && slot.vertex == vertex && slot.prop == prop) {
            slot.lru = ++lru_clock_;
            ++hits_;
            return true;
        }
        if (!slot.valid) {
            victim = &slot;
        } else if (victim->valid && slot.lru < victim->lru) {
            victim = &slot;
        }
    }
    ++misses_;
    victim->valid = true;
    victim->vertex = vertex;
    victim->prop = prop;
    victim->lru = ++lru_clock_;
    return false;
}

bool
SourceVertexBuffer::contains(VertexId vertex, std::uint32_t prop) const
{
    for (const auto &slot : slots_) {
        if (slot.valid && slot.vertex == vertex && slot.prop == prop)
            return true;
    }
    return false;
}

void
SourceVertexBuffer::invalidateAll()
{
    for (auto &slot : slots_)
        slot.valid = false;
    ++invalidations_;
}

void
SourceVertexBuffer::invalidate(VertexId vertex, std::uint32_t prop)
{
    for (auto &slot : slots_) {
        if (slot.valid && slot.vertex == vertex && slot.prop == prop) {
            slot.valid = false;
            return;
        }
    }
}

void
SourceVertexBuffer::visit(FieldVisitor &v)
{
    v.config("SVB slots", slots_.size());
    v.custom(
        [this](SnapshotWriter &w) {
            for (const Slot &s : slots_) {
                w.putBool(s.valid);
                w.putU32(s.vertex);
                w.putU32(s.prop);
                w.putU64(s.lru);
            }
        },
        [this](SnapshotReader &r) {
            for (Slot &s : slots_) {
                s.valid = r.getBool();
                s.vertex = r.getU32();
                s.prop = r.getU32();
                s.lru = r.getU64();
            }
        });
    v.state(lru_clock_);
    v.counter("hits", hits_, "SVB hits");
    v.counter("misses", misses_, "SVB misses");
    v.counter("invalidation_epochs", invalidations_,
              "end-of-iteration invalidation sweeps");
}

} // namespace omega
