/**
 * @file
 * Stat-tree registrar and snapshot saver/loader visitors.
 */

#include "sim/field_visitor.hh"

#include <stdexcept>

#include "util/stats.hh"

namespace omega {

void
StatRegistrar::counter(const char *name, std::uint64_t &v, const char *desc)
{
    groups_.back()->addScalar(name, &v, desc);
}

void
StatRegistrar::histogram(const char *name, Histogram &h, const char *desc)
{
    groups_.back()->addHistogram(name, &h, desc);
}

void
StatRegistrar::enterGroup(const std::string &name)
{
    groups_.push_back(&groups_.back()->addGroup(name));
}

void
SnapshotSaver::histogram(const char *, Histogram &h, const char *)
{
    w_.putU64Vector(h.exportState());
}

void
SnapshotSaver::state(std::span<std::uint64_t> v)
{
    w_.putU64(v.size());
    for (const std::uint64_t x : v)
        w_.putU64(x);
}

void
SnapshotSaver::state(std::span<std::uint32_t> v)
{
    w_.putU64(v.size());
    for (const std::uint32_t x : v)
        w_.putU32(x);
}

void
SnapshotLoader::histogram(const char *name, Histogram &h, const char *)
{
    try {
        h.importState(r_.getU64Vector());
    } catch (const std::invalid_argument &e) {
        throw SnapshotStateError(std::string("snapshot: histogram ") +
                                 name + ": " + e.what());
    }
}

namespace {

/** Read a fixed-length row's count; it must equal the live length. */
void
expectRowLength(SnapshotReader &r, std::size_t elem_bytes, std::size_t live)
{
    const std::uint64_t n = r.getCount(elem_bytes);
    if (n != live) {
        throw SnapshotStateError("snapshot: row of " + std::to_string(n) +
                                 " entries, machine has " +
                                 std::to_string(live));
    }
}

} // namespace

void
SnapshotLoader::state(std::span<std::uint64_t> v)
{
    expectRowLength(r_, sizeof(std::uint64_t), v.size());
    for (std::uint64_t &x : v)
        x = r_.getU64();
}

void
SnapshotLoader::state(std::span<std::uint32_t> v)
{
    expectRowLength(r_, sizeof(std::uint32_t), v.size());
    for (std::uint32_t &x : v)
        x = r_.getU32();
}

void
SnapshotLoader::state(std::span<std::uint64_t> slots, unsigned &live)
{
    // Checked before a slot is written: the span is fixed storage sized
    // by the machine, not by the snapshot.
    const std::uint64_t n = r_.getU64();
    if (n > slots.size()) {
        throw SnapshotStateError(
            "snapshot: window holds " + std::to_string(n) +
            " entries, machine has " + std::to_string(slots.size()));
    }
    live = static_cast<unsigned>(n);
    for (std::uint64_t &x : slots.first(live))
        x = r_.getU64();
}

void
SnapshotLoader::config(const char *what, std::uint64_t live)
{
    const std::uint64_t saved = r_.getU64();
    if (saved != live) {
        throw SnapshotStateError(std::string("snapshot: ") + what +
                                 " mismatch (snapshot " +
                                 std::to_string(saved) + ", machine " +
                                 std::to_string(live) + ")");
    }
}

void
SnapshotLoader::config(const char *what, const std::string &live)
{
    const std::string saved = r_.getString();
    if (saved != live) {
        throw SnapshotStateError(std::string("snapshot: ") + what +
                                 " mismatch (snapshot {" + saved +
                                 "}, machine {" + live + "})");
    }
}

} // namespace omega
