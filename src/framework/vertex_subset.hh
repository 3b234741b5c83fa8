/**
 * @file
 * Ligra-style vertex subsets (frontiers).
 *
 * A VertexSubset is the set of active vertices of an iteration. It has two
 * physical representations — a sparse id list and a dense byte map — and
 * converts between them; edgeMap picks the representation by the usual
 * |frontier| + out-degree threshold. The paper's active-list offload
 * (dense bit per scratchpad line, sparse appends by the PISC) maps onto
 * exactly these two representations.
 */

#ifndef OMEGA_FRAMEWORK_VERTEX_SUBSET_HH
#define OMEGA_FRAMEWORK_VERTEX_SUBSET_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hh"
#include "sim/field_visitor.hh"

namespace omega {

/** A set of active vertices with sparse/dense dual representation. */
class VertexSubset
{
  public:
    /** Empty subset over @p n vertices (sparse representation). */
    explicit VertexSubset(VertexId n = 0);

    /** Singleton subset. */
    static VertexSubset single(VertexId n, VertexId v);
    /** All vertices active (dense representation). */
    static VertexSubset all(VertexId n);
    /**
     * From an explicit id list. Duplicate ids are removed (keeping the
     * first occurrence, so the caller-visible iteration order of the
     * surviving ids is unchanged); size() is the deduplicated count and
     * therefore always agrees with the dense popcount after a
     * sparse -> dense switch.
     */
    static VertexSubset fromSparse(VertexId n, std::vector<VertexId> ids);
    /** From a dense byte map (non-zero = active). */
    static VertexSubset fromDense(std::vector<std::uint8_t> map);

    VertexId numVertices() const { return n_; }
    /** Number of active vertices. */
    VertexId size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool isDense() const { return is_dense_; }

    /**
     * Membership test (works in either representation). Sparse subsets
     * consult a lazily built byte map, so per-edge membership probes are
     * O(1) instead of a linear scan of the id list. Not safe to call
     * concurrently from multiple threads on the same sparse subset (the
     * first call materializes the map).
     */
    bool contains(VertexId v) const;

    /** Convert in place. */
    void toDense();
    void toSparse();

    /** Sparse id list (valid when !isDense()). */
    const std::vector<VertexId> &sparse() const { return sparse_; }
    /** Dense byte map (valid when isDense()). */
    const std::vector<std::uint8_t> &dense() const { return dense_; }

  private:
    VertexId n_ = 0;
    VertexId size_ = 0;
    bool is_dense_ = false;
    std::vector<VertexId> sparse_;
    std::vector<std::uint8_t> dense_;
    /** Lazily built sparse membership map (see contains()). */
    mutable std::vector<std::uint8_t> lookup_;
    mutable bool lookup_valid_ = false;
};

/**
 * Declare frontier @p s as a snapshot field. It is saved in its current
 * representation through the public API; fromSparse/fromDense are
 * idempotent on canonical frontiers, so a round trip reproduces the
 * subset (and its representation) exactly. The loader checks the map
 * size and every id against the vertex count before it constructs.
 */
inline void
visitVertexSubset(FieldVisitor &v, VertexSubset &s)
{
    v.custom(
        [&s](SnapshotWriter &w) {
            w.putU32(s.numVertices());
            w.putBool(s.isDense());
            if (s.isDense())
                w.putU8Vector(s.dense());
            else
                w.putU32Vector(s.sparse());
        },
        [&s](SnapshotReader &r) {
            const VertexId n = r.getU32();
            if (r.getBool()) {
                std::vector<std::uint8_t> map = r.getByteVector();
                if (map.size() != n) {
                    throw SnapshotStateError(
                        "snapshot: dense frontier map does not cover its "
                        "vertex count");
                }
                s = VertexSubset::fromDense(std::move(map));
                return;
            }
            std::vector<VertexId> ids = r.getU32Vector();
            for (const VertexId id : ids) {
                if (id >= n) {
                    throw SnapshotStateError(
                        "snapshot: sparse frontier id out of range");
                }
            }
            s = VertexSubset::fromSparse(n, std::move(ids));
        });
}

} // namespace omega

#endif // OMEGA_FRAMEWORK_VERTEX_SUBSET_HH
