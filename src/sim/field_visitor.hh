/**
 * @file
 * One declaration per member: the visit() contract and its visitors.
 *
 * Every stateful simulator component has one `visit(FieldVisitor &)`
 * that names each of its members exactly once, in snapshot order, and
 * tags it:
 *
 *  - counter(name, word, desc): a statistic — registered in the stat
 *    tree under @p name with @p desc, and saved/restored;
 *  - histogram(name, h, desc): the same for a Histogram (its bucket
 *    geometry is construction state, checked on restore);
 *  - state(...): snapshot only — clocks, windows, tag/LRU rows, RNG
 *    words, loop scalars, strings. A std::span keeps its length
 *    (restore rejects any other saved length; a std::byte span is a
 *    raw row such as a property array); a std::vector takes the saved
 *    length;
 *  - list(items): a resizable vector of records that have their own
 *    visit(); restore takes the saved count;
 *  - config(what, live): written on save; restore compares the saved
 *    value with the live one and throws SnapshotStateError on a
 *    mismatch (geometry, channel counts, the fault plan);
 *  - custom(save, load): a snapshot-only field whose loader has to
 *    validate or construct (the few are listed in DESIGN.md section 13);
 *  - group(name, component): a sub-component whose counters land in a
 *    child stat group @p name. A sub-component without a group of its
 *    own is visited by calling its visit() directly.
 *
 * Three visitors consume the declarations: StatRegistrar builds the
 * StatGroup tree at construction, SnapshotSaver and SnapshotLoader
 * write and read the snapshot payload. Hot paths increment the plain
 * members directly; a visit runs only at construction, snapshot
 * save/restore and JSON output, never per event.
 *
 * Every count the loader sizes a vector from goes through
 * SnapshotReader::getCount(), so nothing is allocated for a count
 * before the remaining payload bounds it. A list() bounds its count by
 * the bytes an empty record saves to, the smallest a record can be.
 */

#ifndef OMEGA_SIM_FIELD_VISITOR_HH
#define OMEGA_SIM_FIELD_VISITOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/snapshot.hh"

namespace omega {

class Histogram;
class StatGroup;

/** Consumer of a component's member declarations (see file comment). */
class FieldVisitor
{
  public:
    virtual ~FieldVisitor() = default;

    virtual void counter(const char *, std::uint64_t &, const char *) {}
    virtual void histogram(const char *, Histogram &, const char *) {}

    virtual void state(std::uint64_t &) {}
    virtual void state(std::uint32_t &) {}
    virtual void state(bool &) {}
    virtual void state(double &) {}
    virtual void state(std::string &) {}
    /** Fixed-length rows. */
    virtual void state(std::span<std::uint64_t>) {}
    virtual void state(std::span<std::uint32_t>) {}
    virtual void state(std::span<std::byte>) {}
    /** The live prefix of fixed slots (its length is the unsigned);
     *  restore rejects a saved prefix longer than the slots. */
    virtual void state(std::span<std::uint64_t>, unsigned &) {}
    /** Resizable vectors. */
    virtual void state(std::vector<std::uint64_t> &) {}
    virtual void state(std::vector<std::uint32_t> &) {}
    virtual void state(std::vector<std::uint8_t> &) {}

    /** A resizable vector of records, each declared by its visit(). */
    template <typename Record>
    void list(std::vector<Record> &items);

    virtual void config(const char *, std::uint64_t) {}
    virtual void config(const char *, const std::string &) {}

    virtual void
    custom(const std::function<void(SnapshotWriter &)> &,
           const std::function<void(SnapshotReader &)> &)
    {
    }

    template <typename Component>
    void
    group(const std::string &name, Component &component)
    {
        enterGroup(name);
        component.visit(*this);
        leaveGroup();
    }

  protected:
    virtual void enterGroup(const std::string &) {}
    virtual void leaveGroup() {}
    /** A list()'s element count: the saver writes @p n, the loader
     *  reads it, bounded by @p min_bytes per element. */
    virtual void count(std::uint64_t &, std::size_t) {}
};

/** Registers every counter and histogram in a StatGroup tree; each
 *  group() becomes a child group owned by its parent. */
class StatRegistrar final : public FieldVisitor
{
  public:
    explicit StatRegistrar(StatGroup &root) : groups_{&root} {}

    void counter(const char *name, std::uint64_t &v,
                 const char *desc) override;
    void histogram(const char *name, Histogram &h,
                   const char *desc) override;

  protected:
    void enterGroup(const std::string &name) override;
    void leaveGroup() override { groups_.pop_back(); }

  private:
    std::vector<StatGroup *> groups_;
};

/** Appends every counter, state, config and custom field to a payload. */
class SnapshotSaver final : public FieldVisitor
{
  public:
    explicit SnapshotSaver(SnapshotWriter &w) : w_(w) {}

    void counter(const char *, std::uint64_t &v, const char *) override
    {
        w_.putU64(v);
    }
    void histogram(const char *, Histogram &h, const char *) override;
    void state(std::uint64_t &v) override { w_.putU64(v); }
    void state(std::uint32_t &v) override { w_.putU32(v); }
    void state(bool &v) override { w_.putBool(v); }
    void state(double &v) override { w_.putF64(v); }
    void state(std::string &v) override { w_.putString(v); }
    void state(std::span<std::uint64_t> v) override;
    void state(std::span<std::uint32_t> v) override;
    void
    state(std::span<std::byte> v) override
    {
        w_.putBytes(v.data(), v.size());
    }
    void
    state(std::span<std::uint64_t> slots, unsigned &live) override
    {
        state(slots.first(live));
    }
    void state(std::vector<std::uint64_t> &v) override { state(std::span(v)); }
    void state(std::vector<std::uint32_t> &v) override { state(std::span(v)); }
    void state(std::vector<std::uint8_t> &v) override { w_.putU8Vector(v); }
    void config(const char *, std::uint64_t live) override { w_.putU64(live); }
    void
    config(const char *, const std::string &live) override
    {
        w_.putString(live);
    }
    void
    custom(const std::function<void(SnapshotWriter &)> &save,
           const std::function<void(SnapshotReader &)> &) override
    {
        save(w_);
    }

  protected:
    void count(std::uint64_t &n, std::size_t) override { w_.putU64(n); }

  private:
    SnapshotWriter &w_;
};

/** Reads the payload SnapshotSaver wrote back into the same members. */
class SnapshotLoader final : public FieldVisitor
{
  public:
    explicit SnapshotLoader(SnapshotReader &r) : r_(r) {}

    void counter(const char *, std::uint64_t &v, const char *) override
    {
        v = r_.getU64();
    }
    void histogram(const char *, Histogram &h, const char *) override;
    void state(std::uint64_t &v) override { v = r_.getU64(); }
    void state(std::uint32_t &v) override { v = r_.getU32(); }
    void state(bool &v) override { v = r_.getBool(); }
    void state(double &v) override { v = r_.getF64(); }
    void state(std::string &v) override { v = r_.getString(); }
    void state(std::span<std::uint64_t> v) override;
    void state(std::span<std::uint32_t> v) override;
    void
    state(std::span<std::byte> v) override
    {
        r_.getBytesInto(v.data(), v.size());
    }
    void state(std::span<std::uint64_t> slots, unsigned &live) override;
    void state(std::vector<std::uint64_t> &v) override
    {
        v = r_.getU64Vector();
    }
    void state(std::vector<std::uint32_t> &v) override
    {
        v = r_.getU32Vector();
    }
    void state(std::vector<std::uint8_t> &v) override
    {
        v = r_.getByteVector();
    }
    void config(const char *what, std::uint64_t live) override;
    void config(const char *what, const std::string &live) override;
    void
    custom(const std::function<void(SnapshotWriter &)> &,
           const std::function<void(SnapshotReader &)> &load) override
    {
        load(r_);
    }

  protected:
    void
    count(std::uint64_t &n, std::size_t min_bytes) override
    {
        n = r_.getCount(min_bytes);
    }

  private:
    SnapshotReader &r_;
};

template <typename Record>
void
FieldVisitor::list(std::vector<Record> &items)
{
    // An empty record saves to the fewest bytes any record can take.
    SnapshotWriter empty;
    SnapshotSaver probe(empty);
    Record{}.visit(probe);
    std::uint64_t n = items.size();
    count(n, empty.size());
    items.resize(n);
    for (Record &item : items)
        item.visit(*this);
}

/** Build @p component's stat tree under @p group. */
template <typename Component>
void
registerStats(StatGroup &group, Component &component)
{
    StatRegistrar registrar(group);
    component.visit(registrar);
}

/**
 * Append @p component's snapshot fields to @p w. visit() is non-const
 * because the loader writes through the same references; the saver
 * only reads them.
 */
template <typename Component>
void
saveFields(SnapshotWriter &w, const Component &component)
{
    SnapshotSaver saver(w);
    const_cast<Component &>(component).visit(saver);
}

/** Inverse of saveFields(). */
template <typename Component>
void
restoreFields(SnapshotReader &r, Component &component)
{
    SnapshotLoader loader(r);
    component.visit(loader);
}

} // namespace omega

#endif // OMEGA_SIM_FIELD_VISITOR_HH
