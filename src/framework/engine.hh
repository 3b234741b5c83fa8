/**
 * @file
 * The vertex-centric framework runtime (Ligra-style), instrumented to
 * drive a simulated memory system.
 *
 * Algorithms are written against edgeMap / vertexMap exactly as in Ligra:
 * an update lambda performs the functional computation on host arrays,
 * while the engine emits the corresponding memory events — edgeList
 * streaming, source-prop reads, atomic vtxProp updates, active-list
 * maintenance — into the attached MemorySystem (baseline or OMEGA). With
 * no machine attached the engine degenerates to a fast functional
 * executor, which is what the correctness tests use.
 *
 * Parallelism model: work is dealt to the 16 logical cores with an
 * OpenMP-style static-chunk schedule; the engine interleaves per-core
 * streams by always advancing the core with the smallest local clock, so
 * shared-resource contention (L2 banks, DRAM channels, PISC queues) is
 * captured.
 */

#ifndef OMEGA_FRAMEWORK_ENGINE_HH
#define OMEGA_FRAMEWORK_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "framework/properties.hh"
#include "framework/scheduler.hh"
#include "framework/vertex_subset.hh"
#include "graph/graph.hh"
#include "sim/memory_system.hh"
#include "translate/update_fn.hh"
#include "util/check.hh"

namespace omega {

class CheckpointCoordinator;

/** Tunables of the runtime. */
struct EngineOptions
{
    /** Static-schedule chunk; must match the machine's sp_chunk_size for
     *  the section-V.D locality benefit (mismatch is an ablation). */
    unsigned chunk_size = 64;
    /** Ligra dense/sparse switch: dense when |F| + outdeg(F) > arcs/d. */
    unsigned dense_threshold_denom = 20;
    /** Edges carry 4-byte weights (SSSP) or are id-only. */
    bool weighted = false;
    /** Instruction-equivalents charged per edge / per vertex. */
    unsigned ops_per_edge = 4;
    unsigned ops_per_vertex = 8;
    /** Cores used when no machine is attached (functional mode). */
    unsigned functional_cores = 16;
    /**
     * Largest number of edges one scheduled task processes. Ligra
     * parallelizes within high-degree vertices; without this cap a hub
     * would execute as one long sequential burst on a single core,
     * distorting load balance and shared-resource contention.
     */
    unsigned max_edges_per_task = 256;
    /**
     * Forward-progress watchdog budget per barrier phase, in cycles; the
     * machine throws WatchdogError (with a diagnostic state dump)
     * instead of hanging when a barrier or busy-table entry stops
     * retiring. 0 disables the watchdog.
     */
    Cycles watchdog_cycles = 0;
    /**
     * Checkpoint coordinator for crash-recoverable runs, or null. The
     * engine registers its own progress counters and the machine's
     * state tree as sections and drives the coordinator's
     * iteration-boundary hook from finishIteration(); the algorithm
     * registers its functional state and calls maybeRestore() itself
     * (sim/checkpoint.hh).
     */
    CheckpointCoordinator *checkpoint = nullptr;
};

/**
 * Reused, growable buffer of one task's EngineOps. push() inlines to
 * a capacity check and direct field stores; the rare reallocation
 * stays out of line, so the hot generation loops carry no call.
 */
class OpArena
{
  public:
    [[gnu::always_inline]] void
    push(const EngineOp &op)
    {
        if (size_ == capacity_) [[unlikely]]
            grow();
        // Field by field: a whole-struct copy makes GCC build the op in
        // a stack temporary and reload it with one 16-byte load, which
        // cannot be store-forwarded from the narrower field stores.
        EngineOp &dst = ops_[size_++];
        dst.addr = op.addr;
        dst.vertex = op.vertex;
        dst.arg = op.arg;
        dst.kind = op.kind;
        dst.cls = op.cls;
        dst.flags = op.flags;
        dst.operand_bytes = op.operand_bytes;
    }
    void clear() { size_ = 0; }
    std::size_t size() const { return size_; }
    std::span<const EngineOp> span() const { return {ops_.get(), size_}; }

  private:
    [[gnu::noinline]] void
    grow()
    {
        capacity_ = capacity_ ? 2 * capacity_ : 1024;
        auto bigger = std::make_unique<EngineOp[]>(capacity_);
        std::copy_n(ops_.get(), size_, bigger.get());
        ops_ = std::move(bigger);
    }

    std::unique_ptr<EngineOp[]> ops_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

/**
 * Tag type for edgeMap calls with no per-vertex emission hook. Detected
 * at compile time so a whole edge task's buffered ops can be handed to
 * the machine as one replayOps() run with no mid-task flush point.
 */
struct NoVertexHook
{
    void operator()(unsigned, VertexId) const {}
};

/** What an update lambda did for one edge (drives event emission). */
struct EdgeUpdateResult
{
    /** The destination prop was read before deciding (test-then-set). */
    bool read_dst = false;
    /** An atomic RMW was performed on the destination. */
    bool performed_atomic = false;
    /** The destination became active for the next iteration. */
    bool activated = false;
};

/** The instrumented runtime binding a graph + properties to a machine. */
class Engine
{
  public:
    /**
     * @param g the graph (vertices are expected to be hot-first reordered
     *          for OMEGA runs; the engine is ordering-agnostic).
     * @param props property registry with the algorithm's vtxProps.
     * @param fn the algorithm's annotated update function.
     * @param mach machine to drive, or nullptr for functional-only runs.
     * @param opts runtime tunables.
     */
    Engine(const Graph &g, PropertyRegistry &props, UpdateFn fn,
           MemorySystem *mach, EngineOptions opts = {});

    /**
     * Write the machine configuration (the generated configuration code
     * of section V.F): monitor registers, active-list bases, microcode.
     *
     * @param hot_boundary vertex count treated as "hot" for the access
     *        statistics; 0 selects the paper's 20% default.
     */
    void configureMachine(VertexId hot_boundary = 0);

    /** Property whose value edgeMap reads per edge for the operand. */
    void setSrcProp(const PropArrayBase *prop) { src_prop_ = prop; }
    /** Property the atomic update read-modifies-writes (address base). */
    void setAtomicTarget(const PropArrayBase *prop)
    {
        atomic_target_ = prop;
    }

    const Graph &graph() const { return g_; }
    unsigned numCores() const { return num_cores_; }
    MemorySystem *machine() { return mach_; }
    const UpdateFn &updateFn() const { return fn_; }
    std::uint64_t iterations() const { return iterations_; }
    /** Parallel phases (barriers) completed — a finer-grained progress
     *  marker than iterations(); one edgeMap/vertexMap counts one or
     *  more phases. Profiled runs use it to size phase attribution. */
    std::uint64_t phases() const { return phases_; }

    /**
     * @name Raw event emission (custom algorithms: TC, KC).
     * Each emit delivers one op to the machine immediately, as a one-op
     * replayOps() span. They are never appended to the edge task's op
     * buffer: an update lambda that emits live (BC, KC) must keep its
     * loads ahead of its task's buffered ops (DESIGN.md "Impure phases").
     * @{
     */
    void
    emitCompute(unsigned core, std::uint32_t ops)
    {
        emitOp(core, EngineOp::compute(ops));
    }
    void
    emitLoad(unsigned core, std::uint64_t addr, std::uint32_t size,
             AccessClass cls, bool blocking = false, VertexId vertex = 0,
             bool sequential = false)
    {
        emitOp(core, EngineOp::load(addr, size, cls, blocking, vertex,
                                    sequential));
    }
    void
    emitStore(unsigned core, std::uint64_t addr, std::uint32_t size,
              AccessClass cls, VertexId vertex = 0, bool sequential = false)
    {
        emitOp(core, EngineOp::store(addr, size, cls, vertex, sequential));
    }
    /** Stream @p bytes sequentially at line granularity (memset-like). */
    void emitStreaming(std::uint64_t base, std::uint64_t bytes, bool write,
                       AccessClass cls);
    /** Read the out-CSR offsets entry of @p v. @p sequential marks the
     *  dense sweep (vertex-ordered, stream-prefetchable). */
    void
    emitOffsetsRead(unsigned core, VertexId v, bool sequential = false)
    {
        // Reads offsets[v] and offsets[v+1]; they share a line most of
        // the time, so one 16-byte access models the pair. The
        // out-of-order window overlaps it with other vertices' work
        // (non-blocking).
        emitLoad(core,
                 out_offsets_base_ + static_cast<std::uint64_t>(v) * 8, 16,
                 AccessClass::EdgeList, /*blocking=*/false, 0, sequential);
    }
    /** Read the @p i-th global out-edge entry (id [+ weight]). */
    void
    emitEdgeRead(unsigned core, EdgeId i)
    {
        emitLoad(core, out_arcs_base_ + i * edge_entry_bytes_,
                 edge_entry_bytes_, AccessClass::EdgeList, false, 0,
                 /*sequential=*/true);
    }
    /** Read the in-CSR offsets entry of @p v (pull direction). */
    void
    emitInOffsetsRead(unsigned core, VertexId v, bool sequential = true)
    {
        emitLoad(core,
                 in_offsets_base_ + static_cast<std::uint64_t>(v) * 8, 16,
                 AccessClass::EdgeList, /*blocking=*/false, 0, sequential);
    }
    /** Read the @p i-th global in-edge entry (pull direction). */
    void
    emitInEdgeRead(unsigned core, EdgeId i)
    {
        emitLoad(core, in_arcs_base_ + i * edge_entry_bytes_,
                 edge_entry_bytes_, AccessClass::EdgeList, false, 0,
                 /*sequential=*/true);
    }
    /** Read @p u's source vtxProp (SVB-eligible on OMEGA). */
    void
    emitSrcPropRead(unsigned core, VertexId u)
    {
        if (src_prop_)
            emitOp(core, EngineOp::srcProp(u, src_prop_->addrOf(u),
                                           src_prop_->typeSize()));
    }
    /** @} */

    /** Join all cores (end of a parallel region). */
    void finishPhase();
    /** End of an algorithm iteration (invalidates SVBs, bumps counter). */
    void finishIteration();

    /**
     * Ligra edgeMap, push direction. Iterates the frontier's out-edges;
     * @p update is called per edge as
     *   EdgeUpdateResult update(unsigned core, VertexId src, VertexId dst,
     *                           std::int32_t weight)
     * and must perform the functional state change itself.
     *
     * @param frontier active vertices.
     * @param update per-edge functional update.
     * @param want_output collect the next frontier (PageRank-style
     *        all-active algorithms pass false and save the maintenance).
     * @param vertex_hook called once per active source vertex before its
     *        edges (algorithms emit per-vertex loads here).
     * @return the next frontier (empty subset when !want_output).
     */
    template <typename UpdateF, typename VertexHookF>
    VertexSubset edgeMap(const VertexSubset &frontier, UpdateF &&update,
                         bool want_output, VertexHookF &&vertex_hook);

    template <typename UpdateF>
    VertexSubset
    edgeMap(const VertexSubset &frontier, UpdateF &&update,
            bool want_output = true)
    {
        return edgeMap(frontier, std::forward<UpdateF>(update), want_output,
                       NoVertexHook{});
    }

    /**
     * Pull-direction edge sweep over ALL vertices (the GraphMat-style /
     * Ligra-dense alternative the paper contrasts in section IV): each
     * destination's owner walks the destination's IN-edges, reads the
     * source vtxProps (random accesses) and updates the destination
     * locally — no atomics anywhere. @p gather is called per in-edge as
     *   gather(core, dst, src, weight)
     * and @p apply once per destination after its edges, with the engine
     * emitting the destination-prop store.
     *
     * Each task's gathers (and, for its first segment, the apply) run
     * once the task's ops have reached the machine; @p gather and
     * @p apply are functional only and emit no machine events.
     *
     * @param src_prop property read per in-edge (the random stream).
     * @param dst_prop property stored once per destination.
     */
    template <typename GatherF, typename ApplyF>
    void edgeMapPullAll(const PropArrayBase &src_prop,
                        const PropArrayBase &dst_prop, GatherF &&gather,
                        ApplyF &&apply);

    /**
     * Ligra vertexMap: apply @p f to each active vertex; the engine emits
     * word loads/stores for the given property lists.
     */
    template <typename F>
    void vertexMap(const VertexSubset &subset, F &&f,
                   const std::vector<const PropArrayBase *> &reads = {},
                   const std::vector<const PropArrayBase *> &writes = {});

    /**
     * Plain interleaved parallel-for over [0, total); @p f(core, index)
     * does its own event emission. scriptedFor() with an empty
     * generator and @p f as the hook. Ends with a barrier.
     *
     * @param chunk static-schedule chunk; 0 selects opts_.chunk_size.
     */
    template <typename F>
    void parallelFor(std::uint64_t total, F &&f, unsigned chunk = 0);

    /**
     * Append-only view of the item op arena, handed to scriptedFor()
     * generators. hookHere() marks where the item's functional hook runs
     * during replay (default: after all of the item's ops).
     */
    class ScriptBuilder
    {
      public:
        explicit ScriptBuilder(OpArena &ops) : ops_(ops) {}
        void push(const EngineOp &op) { ops_.push(op); }
        void hookHere() { hook_ = ops_.size(); }
        std::size_t
        hookOffset() const
        {
            return hook_ == kAtEnd ? ops_.size() : hook_;
        }

      private:
        static constexpr std::size_t kAtEnd = ~std::size_t{0};
        OpArena &ops_;
        std::size_t hook_ = kAtEnd;
    };

    /**
     * Scripted parallel-for over [0, total), the engine's one scheduling
     * loop. Items are dealt by the static-chunk schedule; each step
     * picks the lowest-clock core (lowest id on ties) with work left,
     * has @p gen(builder, index) write the item's machine ops into the
     * reused item arena, and replays them in two runs split at the hook
     * offset, with @p hook(core, index) doing the item's functional work
     * (and any live emits) in between. @p gen must read only state the
     * item's own ops cannot change (graph, layout, subset), never
     * machine state. Ends with a barrier.
     */
    template <typename GenF, typename HookF>
    void scriptedFor(std::uint64_t total, GenF &&gen, HookF &&hook,
                     unsigned chunk = 0);

    /** @name Simulated address bases (exposed for algorithms/tests). @{ */
    std::uint64_t outOffsetsBase() const { return out_offsets_base_; }
    std::uint64_t outArcsBase() const { return out_arcs_base_; }
    std::uint64_t denseActiveBase() const { return dense_active_base_; }
    std::uint64_t sparseActiveBase() const { return sparse_active_base_; }
    unsigned edgeEntryBytes() const { return edge_entry_bytes_; }
    /** @} */

  private:
    /** Most cores a machine may have: CacheLine::sharers is a 16-bit
     *  mask, and scriptedFor's pick keys hold the core id in 4 bits. */
    static constexpr unsigned kMaxCores = 16;

    /** One scheduled unit of edgeMap work: a slice of a vertex's edges. */
    struct EdgeTask
    {
        VertexId u = 0;
        /** Index within u's adjacency where this slice starts. */
        std::uint32_t offset = 0;
        std::uint32_t count = 0;
        /** Dense sweep: the vertex was inactive (scan-only task). */
        bool active = true;
        /** First slice of the vertex: emits the prologue. */
        bool first_segment = true;
        /** Sparse mode: index of the frontier entry to read. */
        std::uint64_t frontier_slot = 0;
    };

    /**
     * Split @p u's edges into tasks of at most max_edges_per_task: the
     * first segment goes to @p tasks (keeping task index == iteration
     * order, which preserves the chunk/scratchpad alignment of
     * section V.D), the remaining hub segments go to @p extras.
     */
    void appendTasks(std::vector<EdgeTask> &tasks,
                     std::vector<EdgeTask> &extras, VertexId u,
                     bool active, std::uint64_t frontier_slot) const;

    /** Order hub segments for the fine-grained second phase. */
    static void mergeExtraTasks(std::vector<EdgeTask> &extras);

    /** Process one edge task (prologue + its slice of edges). */
    template <typename UpdateF, typename VertexHookF>
    void processEdgeTask(unsigned core, const EdgeTask &task,
                         UpdateF &&update, VertexHookF &&vertex_hook,
                         bool want_output, bool dense_output,
                         bool sparse_frontier);

    /** Record dst as newly activated; true if it was not active yet. */
    bool markActive(unsigned core, VertexId dst, bool dense_output);

    /** Deliver one live op to the machine (raw event emission). */
    void
    emitOp(unsigned core, const EngineOp &op)
    {
        if (mach_)
            mach_->replayOps(core, {&op, 1});
    }

    /** Flush the buffered ops of the current (impure) edge task. */
    void
    flushOps(unsigned core)
    {
        if (op_buf_.size() != 0) {
            mach_->replayOps(core, op_buf_.span());
            op_buf_.clear();
        }
    }

    const Graph &g_;
    PropertyRegistry &props_;
    UpdateFn fn_;
    MemorySystem *mach_;
    EngineOptions opts_;
    unsigned num_cores_;

    const PropArrayBase *src_prop_ = nullptr;
    const PropArrayBase *atomic_target_ = nullptr;

    std::uint64_t out_offsets_base_ = 0;
    std::uint64_t out_arcs_base_ = 0;
    std::uint64_t in_offsets_base_ = 0;
    std::uint64_t in_arcs_base_ = 0;
    std::uint64_t dense_active_base_ = 0;
    std::uint64_t sparse_active_base_ = 0;
    std::uint64_t sparse_read_base_ = 0;
    std::uint64_t sparse_counter_addr_ = 0;
    unsigned edge_entry_bytes_ = 4;

    std::uint64_t iterations_ = 0;
    std::uint64_t phases_ = 0;

    /** Next-frontier collection state (valid during edgeMap). */
    std::vector<std::uint8_t> next_dense_;
    std::vector<std::uint8_t> in_next_;
    std::vector<std::vector<VertexId>> per_core_sparse_;

    /** Ops of the scriptedFor item being replayed. */
    OpArena item_ops_;
    /** Inline op buffer of the (impure) push-edgeMap path. */
    OpArena op_buf_;

    /** Reused task-list scratch for edgeMap / edgeMapPullAll. */
    std::vector<EdgeTask> task_scratch_;
    std::vector<EdgeTask> extra_scratch_;
};

// ---------------------------------------------------------------------
// Template implementations.
// ---------------------------------------------------------------------

template <typename F>
void
Engine::parallelFor(std::uint64_t total, F &&f, unsigned chunk)
{
    scriptedFor(
        total, [](ScriptBuilder &, std::uint64_t) {}, std::forward<F>(f),
        chunk);
}

template <typename GenF, typename HookF>
void
Engine::scriptedFor(std::uint64_t total, GenF &&gen, HookF &&hook,
                    unsigned chunk)
{
    StaticScheduler sched(total, num_cores_,
                          chunk ? chunk : opts_.chunk_size);
    if (!mach_) {
        // Functional mode: hooks only, drained round-robin (no machine,
        // no ops, no barrier).
        while (!sched.done()) {
            for (unsigned c = 0; c < num_cores_; ++c) {
                if (auto i = sched.next(c))
                    hook(c, *i);
            }
        }
        return;
    }
    // Always advance the lowest-id core among those with the smallest
    // local clock. Each core's pick key packs its clock above its id,
    // (clock << 4) | core, so one unsigned min over all 16 slots gives
    // the lowest clock with ties to the lowest id; a core with no items
    // left (and every slot past num_cores_) holds ~0 and is never picked
    // while a live core remains. The min is a fixed 15-compare tree with
    // no data-dependent branch. coreNow() is a virtual call and an item
    // only moves its own core's clock, so only the worked core's key is
    // refreshed per item.
    static_assert(kMaxCores == 16, "the pick key packs the id in 4 bits");
    constexpr std::uint64_t kDone = ~std::uint64_t{0};
    constexpr unsigned kSlots = kMaxCores;
    const auto key = [this](unsigned c, bool alive) {
        const Cycles t = mach_->coreNow(c);
        omega_assert(t < (Cycles{1} << 60),
                     "core clock overflows the scriptedFor pick key");
        return alive ? (t << 4) | c : kDone;
    };
    std::array<std::uint64_t, kSlots> keys;
    keys.fill(kDone);
    for (unsigned c = 0; c < num_cores_; ++c)
        keys[c] = key(c, sched.peek(c).has_value());
    for (;;) {
        std::uint64_t m[kSlots / 2];
        for (unsigned i = 0; i < kSlots / 2; ++i)
            m[i] = std::min(keys[i], keys[i + kSlots / 2]);
        for (unsigned w = kSlots / 4; w != 0; w /= 2) {
            for (unsigned i = 0; i < w; ++i)
                m[i] = std::min(m[i], m[i + w]);
        }
        if (m[0] == kDone)
            break;
        const unsigned best = static_cast<unsigned>(m[0] & (kSlots - 1));
        const std::uint64_t idx = *sched.next(best);
        item_ops_.clear();
        ScriptBuilder b(item_ops_);
        gen(b, idx);
        const std::span<const EngineOp> ops = item_ops_.span();
        const std::size_t at = b.hookOffset();
        if (at != 0)
            mach_->replayOps(best, ops.first(at));
        hook(best, idx);
        if (ops.size() != at)
            mach_->replayOps(best, ops.subspan(at));
        keys[best] = key(best, sched.peek(best).has_value());
    }
    finishPhase();
}

inline bool
Engine::markActive(unsigned core, VertexId dst, bool dense_output)
{
    if (dense_output) {
        if (next_dense_[dst])
            return false;
        next_dense_[dst] = 1;
        return true;
    }
    if (in_next_[dst])
        return false;
    in_next_[dst] = 1;
    per_core_sparse_[core].push_back(dst);
    return true;
}

inline void
Engine::appendTasks(std::vector<EdgeTask> &tasks,
                    std::vector<EdgeTask> &extras, VertexId u, bool active,
                    std::uint64_t frontier_slot) const
{
    EdgeTask first;
    first.u = u;
    first.active = active;
    first.frontier_slot = frontier_slot;
    const EdgeId deg = active ? g_.outDegree(u) : 0;
    first.count = static_cast<std::uint32_t>(
        std::min<EdgeId>(deg, opts_.max_edges_per_task));
    tasks.push_back(first);
    for (EdgeId off = opts_.max_edges_per_task; off < deg;
         off += opts_.max_edges_per_task) {
        EdgeTask rest;
        rest.u = u;
        rest.offset = static_cast<std::uint32_t>(off);
        rest.count = static_cast<std::uint32_t>(
            std::min<EdgeId>(deg - off, opts_.max_edges_per_task));
        rest.first_segment = false;
        extras.push_back(rest);
    }
}

inline void
Engine::mergeExtraTasks(std::vector<EdgeTask> &extras)
{
    // Order hub slices by (slice index, vertex): successive tasks come
    // from different hubs where possible, smoothing the tail.
    std::sort(extras.begin(), extras.end(),
              [](const EdgeTask &a, const EdgeTask &b) {
                  if (a.offset != b.offset)
                      return a.offset < b.offset;
                  return a.u < b.u;
              });
}

template <typename UpdateF, typename VertexHookF>
void
Engine::processEdgeTask(unsigned core, const EdgeTask &task,
                        UpdateF &&update, VertexHookF &&vertex_hook,
                        bool want_output, bool dense_output,
                        bool sparse_frontier)
{
    // Push-direction tasks are impure — op content depends on what the
    // update lambda did — so they cannot be scripted ahead. Instead the
    // ops are buffered inline and handed over in whole-task replayOps()
    // runs: deferral-safe because nothing functional reads machine state
    // mid-task (the engine consults coreNow() only between tasks), so
    // the functional order matches the legacy per-event emission.
    //
    // The machine event order matches it only while the update lambda
    // emits nothing itself. BC and KC's lambdas call emitLoad() live
    // (the depth / removed-flag test), so within one task those loads
    // reach the machine first, in edge order, and the task's buffered
    // prologue, edge reads and atomics follow at the flush. It stays
    // that way for now: buffering those loads in place would change
    // BC and KC cycle counts, and with them the workload digests the
    // host benchmark pins (benchmark/workloads.cc).
    const VertexId u = task.u;
    const bool sim = mach_ != nullptr;
    if (task.first_segment) {
        if (sim) {
            if (sparse_frontier) {
                op_buf_.push(EngineOp::load(
                    sparse_read_base_ + 4 * task.frontier_slot, 4,
                    AccessClass::ActiveList, false, 0,
                    /*sequential=*/true));
            } else {
                op_buf_.push(EngineOp::load(
                    dense_active_base_ + u, 1, AccessClass::ActiveList,
                    false, 0, /*sequential=*/true));
            }
            op_buf_.push(EngineOp::compute(1));
        }
        if (!task.active) {
            if (sim)
                flushOps(core);
            return;
        }
        if (sim) {
            // The offsets pair read (see emitOffsetsRead).
            op_buf_.push(EngineOp::load(
                out_offsets_base_ + static_cast<std::uint64_t>(u) * 8, 16,
                AccessClass::EdgeList, false, 0,
                /*sequential=*/!sparse_frontier));
            op_buf_.push(EngineOp::compute(opts_.ops_per_vertex));
        }
        if constexpr (!std::is_same_v<std::decay_t<VertexHookF>,
                                      NoVertexHook>) {
            // The hook emits live events of its own: flush so the
            // buffered prologue stays ahead of them.
            if (sim)
                flushOps(core);
            vertex_hook(core, u);
        }
    }

    const auto nbrs = g_.outNeighbors(u);
    const auto ws = g_.outWeights(u);
    const EdgeId base = g_.outEdgeBase(u);
    const bool read_src = fn_.reads_src_prop && src_prop_ != nullptr;

    const std::size_t end = task.offset + task.count;
    for (std::size_t i = task.offset; i < end; ++i) {
        const VertexId dst = nbrs[i];
        if (sim) {
            op_buf_.push(EngineOp::load(
                out_arcs_base_ + (base + i) * edge_entry_bytes_,
                edge_entry_bytes_, AccessClass::EdgeList, false, 0,
                /*sequential=*/true));
            if (read_src) {
                op_buf_.push(EngineOp::srcProp(
                    u, src_prop_->addrOf(u), src_prop_->typeSize()));
            }
        }

        const EdgeUpdateResult r = update(core, u, dst, ws[i]);

        if (r.read_dst && atomic_target_ && sim) {
            op_buf_.push(EngineOp::load(
                atomic_target_->addrOf(dst), atomic_target_->typeSize(),
                AccessClass::VertexProp, false, dst));
        }
        const bool newly =
            (r.activated && want_output) ? markActive(core, dst, dense_output)
                                         : false;
        if (r.performed_atomic && atomic_target_ && sim) {
            op_buf_.push(EngineOp::atomic(
                dst, atomic_target_->addrOf(dst),
                atomic_target_->typeSize(),
                static_cast<std::uint8_t>(fn_.operand_bytes),
                newly && dense_output, newly && !dense_output));
        }
        if (sim)
            op_buf_.push(EngineOp::compute(opts_.ops_per_edge));
    }
    if (sim)
        flushOps(core);
}

template <typename UpdateF, typename VertexHookF>
VertexSubset
Engine::edgeMap(const VertexSubset &frontier, UpdateF &&update,
                bool want_output, VertexHookF &&vertex_hook)
{
    const VertexId n = g_.numVertices();

    // Ligra's representation switch: count the frontier's out-edges.
    EdgeId frontier_edges = 0;
    if (frontier.isDense()) {
        for (VertexId v = 0; v < n; ++v) {
            if (frontier.dense()[v])
                frontier_edges += g_.outDegree(v);
        }
    } else {
        for (VertexId v : frontier.sparse())
            frontier_edges += g_.outDegree(v);
    }
    const bool dense =
        frontier.isDense() ||
        (static_cast<EdgeId>(frontier.size()) + frontier_edges >
         g_.numArcs() / opts_.dense_threshold_denom);

    // Prepare output collection.
    if (want_output) {
        if (dense) {
            next_dense_.assign(n, 0);
            // Clearing the next bitmap is streaming framework overhead.
            emitStreaming(dense_active_base_, n, true,
                          AccessClass::ActiveList);
        } else {
            in_next_.assign(n, 0);
            per_core_sparse_.resize(num_cores_);
            for (auto &v : per_core_sparse_)
                v.clear();
        }
    }

    if (dense) {
        VertexSubset f = frontier;
        if (!f.isDense()) {
            f.toDense();
            // Sparse -> dense conversion streams the bitmap.
            emitStreaming(dense_active_base_, n, true,
                          AccessClass::ActiveList);
        }
        const auto &bits = f.dense();
        std::vector<EdgeTask> &tasks = task_scratch_;
        std::vector<EdgeTask> &extras = extra_scratch_;
        tasks.clear();
        extras.clear();
        tasks.reserve(n);
        for (VertexId v = 0; v < n; ++v)
            appendTasks(tasks, extras, v, bits[v] != 0, 0);
        parallelFor(tasks.size(), [&](unsigned core, std::uint64_t idx) {
            processEdgeTask(core, tasks[idx], update, vertex_hook,
                            want_output, /*dense_output=*/true,
                            /*sparse_frontier=*/false);
        });
        if (!extras.empty()) {
            // Hub slices: schedule one task at a time so a single hub's
            // work spreads over all cores (Ligra's edge parallelism).
            mergeExtraTasks(extras);
            parallelFor(
                extras.size(),
                [&](unsigned core, std::uint64_t idx) {
                    processEdgeTask(core, extras[idx], update, vertex_hook,
                                    want_output, /*dense_output=*/true,
                                    /*sparse_frontier=*/false);
                },
                /*chunk=*/1);
        }
        VertexSubset out(n);
        if (want_output)
            out = VertexSubset::fromDense(std::move(next_dense_));
        next_dense_.clear();
        return out;
    }

    const auto &ids = frontier.sparse();
    std::vector<EdgeTask> &tasks = task_scratch_;
    std::vector<EdgeTask> &extras = extra_scratch_;
    tasks.clear();
    extras.clear();
    tasks.reserve(ids.size());
    for (std::uint64_t slot = 0; slot < ids.size(); ++slot)
        appendTasks(tasks, extras, ids[slot], true, slot);
    parallelFor(tasks.size(), [&](unsigned core, std::uint64_t idx) {
        processEdgeTask(core, tasks[idx], update, vertex_hook, want_output,
                        /*dense_output=*/false, /*sparse_frontier=*/true);
    });
    if (!extras.empty()) {
        mergeExtraTasks(extras);
        parallelFor(
            extras.size(),
            [&](unsigned core, std::uint64_t idx) {
                processEdgeTask(core, extras[idx], update, vertex_hook,
                                want_output, /*dense_output=*/false,
                                /*sparse_frontier=*/true);
            },
            /*chunk=*/1);
    }

    VertexSubset out(n);
    if (want_output) {
        std::vector<VertexId> merged;
        for (auto &v : per_core_sparse_) {
            merged.insert(merged.end(), v.begin(), v.end());
            v.clear();
        }
        out = VertexSubset::fromSparse(n, std::move(merged));
    }
    in_next_.clear();
    return out;
}

template <typename GatherF, typename ApplyF>
void
Engine::edgeMapPullAll(const PropArrayBase &src_prop,
                       const PropArrayBase &dst_prop, GatherF &&gather,
                       ApplyF &&apply)
{
    const VertexId n = g_.numVertices();
    // Task list over destinations, hubs split by in-degree.
    std::vector<EdgeTask> &tasks = task_scratch_;
    std::vector<EdgeTask> &extras = extra_scratch_;
    tasks.clear();
    extras.clear();
    tasks.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
        EdgeTask first;
        first.u = v;
        const EdgeId deg = g_.inDegree(v);
        first.count = static_cast<std::uint32_t>(
            std::min<EdgeId>(deg, opts_.max_edges_per_task));
        tasks.push_back(first);
        for (EdgeId off = opts_.max_edges_per_task; off < deg;
             off += opts_.max_edges_per_task) {
            EdgeTask rest;
            rest.u = v;
            rest.offset = static_cast<std::uint32_t>(off);
            rest.count = static_cast<std::uint32_t>(
                std::min<EdgeId>(deg - off, opts_.max_edges_per_task));
            rest.first_segment = false;
            extras.push_back(rest);
        }
    }

    // Pull tasks are structurally pure: every op depends only on the
    // graph and the property layout, so they run scripted. The gathers
    // and the apply are functional-only and sit at the default hook
    // offset, after all of the task's ops: nothing is emitted between
    // them, and the destination store is address-only.
    auto gen_task = [&](ScriptBuilder &b, const EdgeTask &task) {
        const VertexId dst = task.u;
        if (task.first_segment) {
            b.push(EngineOp::load(
                in_offsets_base_ + static_cast<std::uint64_t>(dst) * 8, 16,
                AccessClass::EdgeList, false, 0, /*sequential=*/true));
            b.push(EngineOp::compute(opts_.ops_per_vertex));
        }
        const auto nbrs = g_.inNeighbors(dst);
        const EdgeId base = g_.inEdgeBase(dst);
        const std::size_t end = task.offset + task.count;
        for (std::size_t i = task.offset; i < end; ++i) {
            b.push(EngineOp::load(
                in_arcs_base_ + (base + i) * edge_entry_bytes_,
                edge_entry_bytes_, AccessClass::EdgeList, false, 0,
                /*sequential=*/true));
            // The random read stream of pull mode: the source's vtxProp.
            b.push(EngineOp::load(src_prop.addrOf(nbrs[i]),
                                  src_prop.typeSize(),
                                  AccessClass::VertexProp, false, nbrs[i]));
            b.push(EngineOp::compute(opts_.ops_per_edge));
        }
        if (task.first_segment) {
            b.push(EngineOp::store(dst_prop.addrOf(dst),
                                   dst_prop.typeSize(),
                                   AccessClass::VertexProp, dst,
                                   /*sequential=*/true));
        }
    };
    auto hook_task = [&](unsigned core, const EdgeTask &task) {
        const VertexId dst = task.u;
        const auto nbrs = g_.inNeighbors(dst);
        const auto ws = g_.inWeights(dst);
        const std::size_t end = task.offset + task.count;
        for (std::size_t i = task.offset; i < end; ++i)
            gather(core, dst, nbrs[i], ws[i]);
        if (task.first_segment)
            apply(core, dst);
    };

    // Main tasks: one per destination vertex, whose additions happen in
    // ascending edge order within its single task.
    scriptedFor(
        tasks.size(),
        [&](ScriptBuilder &b, std::uint64_t idx) { gen_task(b, tasks[idx]); },
        [&](unsigned core, std::uint64_t idx) {
            hook_task(core, tasks[idx]);
        });
    if (!extras.empty()) {
        mergeExtraTasks(extras);
        scriptedFor(
            extras.size(),
            [&](ScriptBuilder &b, std::uint64_t idx) {
                gen_task(b, extras[idx]);
            },
            [&](unsigned core, std::uint64_t idx) {
                hook_task(core, extras[idx]);
            },
            /*chunk=*/1);
    }
}

template <typename F>
void
Engine::vertexMap(const VertexSubset &subset, F &&f,
                  const std::vector<const PropArrayBase *> &reads,
                  const std::vector<const PropArrayBase *> &writes)
{
    // vertexMap is structurally pure (op content depends only on the
    // subset and the property layout), so it runs scripted. hookHere()
    // splits each item: the active-list and property reads replay ahead
    // of f and the writes + per-vertex compute after it, so live events
    // f emits (some algorithms do) land between the two runs, exactly
    // where the legacy per-event order put them.
    auto gen_active = [&](ScriptBuilder &b, VertexId v) {
        for (const auto *p : reads) {
            b.push(EngineOp::load(p->addrOf(v), p->typeSize(),
                                  AccessClass::VertexProp, false, v,
                                  /*sequential=*/true));
        }
        b.hookHere();
        for (const auto *p : writes) {
            b.push(EngineOp::store(p->addrOf(v), p->typeSize(),
                                   AccessClass::VertexProp, v,
                                   /*sequential=*/true));
        }
        b.push(EngineOp::compute(opts_.ops_per_vertex));
    };

    if (subset.isDense()) {
        const auto &bits = subset.dense();
        scriptedFor(
            subset.numVertices(),
            [&](ScriptBuilder &b, std::uint64_t idx) {
                const auto v = static_cast<VertexId>(idx);
                b.push(EngineOp::load(dense_active_base_ + v, 1,
                                      AccessClass::ActiveList, false, 0,
                                      /*sequential=*/true));
                if (bits[v])
                    gen_active(b, v);
            },
            [&](unsigned core, std::uint64_t idx) {
                const auto v = static_cast<VertexId>(idx);
                if (bits[v])
                    f(core, v);
            });
    } else {
        const auto &ids = subset.sparse();
        scriptedFor(
            ids.size(),
            [&](ScriptBuilder &b, std::uint64_t idx) {
                b.push(EngineOp::load(sparse_read_base_ + 4 * idx, 4,
                                      AccessClass::ActiveList,
                                      /*blocking=*/true));
                gen_active(b, ids[idx]);
            },
            [&](unsigned core, std::uint64_t idx) { f(core, ids[idx]); });
    }
}

} // namespace omega

#endif // OMEGA_FRAMEWORK_ENGINE_HH
