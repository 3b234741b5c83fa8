/**
 * @file
 * Vertex-property (vtxProp) registry.
 *
 * Algorithms allocate their per-vertex state here. Each property owns a
 * host array for the functional computation and a simulated address range
 * in the vtxProp region; the ranges become the scratchpad controller's
 * address-monitoring registers (PropSpec). The paper's "nGraphData"
 * (loop counters, reduction scratch) is allocated from a separate bump
 * region.
 */

#ifndef OMEGA_FRAMEWORK_PROPERTIES_HH
#define OMEGA_FRAMEWORK_PROPERTIES_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hh"
#include "sim/access.hh"
#include "sim/field_visitor.hh"
#include "sim/memory_system.hh"
#include "util/logging.hh"

namespace omega {

/** Type-erased property array: name + simulated layout. */
class PropArrayBase
{
  public:
    PropArrayBase(std::string name, std::uint64_t start_addr,
                  std::uint32_t type_size, VertexId count)
        : name_(std::move(name)), start_addr_(start_addr),
          type_size_(type_size), count_(count)
    {
    }
    virtual ~PropArrayBase() = default;

    const std::string &name() const { return name_; }
    std::uint64_t startAddr() const { return start_addr_; }
    std::uint32_t typeSize() const { return type_size_; }
    VertexId count() const { return count_; }

    /** Simulated address of vertex @p v's entry. */
    std::uint64_t addrOf(VertexId v) const
    {
        return start_addr_ + static_cast<std::uint64_t>(v) * type_size_;
    }

    /** The monitor-register row for this property. */
    PropSpec spec() const
    {
        PropSpec s;
        s.start_addr = start_addr_;
        s.type_size = type_size_;
        s.stride = type_size_;
        s.count = count_;
        return s;
    }

  private:
    std::string name_;
    std::uint64_t start_addr_;
    std::uint32_t type_size_;
    VertexId count_;
};

/** Typed property array with host storage. */
template <typename T>
class PropArray : public PropArrayBase
{
  public:
    PropArray(std::string name, std::uint64_t start_addr, VertexId count,
              T init)
        : PropArrayBase(std::move(name), start_addr,
                        static_cast<std::uint32_t>(sizeof(T)), count),
          data_(count, init)
    {
    }

    T &operator[](VertexId v) { return data_[v]; }
    const T &operator[](VertexId v) const { return data_[v]; }
    std::vector<T> &data() { return data_; }
    const std::vector<T> &data() const { return data_; }
    void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

    /**
     * Snapshot fields: the host array as a raw byte row (the functional
     * vertex state). Name and size are cross-checked, so a section
     * restored into the wrong property is a state error, not silent
     * corruption.
     */
    void
    visit(FieldVisitor &v)
    {
        v.config("property", name());
        v.state(std::as_writable_bytes(std::span(data_)));
    }

  private:
    std::vector<T> data_;
};

/**
 * Per-run registry: bump-allocates simulated vtxProp space and owns the
 * host arrays.
 */
class PropertyRegistry
{
  public:
    explicit PropertyRegistry(VertexId num_vertices)
        : num_vertices_(num_vertices)
    {
    }

    /** Allocate a property array initialized to @p init. */
    template <typename T>
    PropArray<T> &
    create(const std::string &name, T init = T{})
    {
        auto arr = std::make_unique<PropArray<T>>(name, next_prop_addr_,
                                                  num_vertices_, init);
        next_prop_addr_ += alignUp(
            static_cast<std::uint64_t>(num_vertices_) * sizeof(T));
        PropArray<T> *ptr = arr.get();
        props_.push_back(std::move(arr));
        return *ptr;
    }

    /** Allocate @p bytes of nGraphData space; returns its base address. */
    std::uint64_t
    allocOther(std::uint64_t bytes)
    {
        const std::uint64_t addr = next_other_addr_;
        next_other_addr_ += alignUp(bytes);
        return addr;
    }

    VertexId numVertices() const { return num_vertices_; }
    std::size_t numProps() const { return props_.size(); }
    const PropArrayBase &prop(std::size_t i) const { return *props_[i]; }

    /** Monitor-register rows for every registered property. */
    std::vector<PropSpec>
    specs() const
    {
        std::vector<PropSpec> out;
        out.reserve(props_.size());
        for (const auto &p : props_)
            out.push_back(p->spec());
        return out;
    }

    /** Total vtxProp bytes per vertex (Table II "vtxProp entry size"). */
    std::uint32_t
    bytesPerVertex() const
    {
        std::uint32_t total = 0;
        for (const auto &p : props_)
            total += p->typeSize();
        return total;
    }

  private:
    static std::uint64_t alignUp(std::uint64_t v)
    {
        return (v + 63) / 64 * 64;
    }

    VertexId num_vertices_;
    std::uint64_t next_prop_addr_ = addr_space::kPropBase;
    std::uint64_t next_other_addr_ = addr_space::kOtherBase;
    std::vector<std::unique_ptr<PropArrayBase>> props_;
};

} // namespace omega

#endif // OMEGA_FRAMEWORK_PROPERTIES_HH
